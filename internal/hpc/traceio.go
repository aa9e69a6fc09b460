package hpc

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/memuse"
)

// Trace files hold a job trace outside the process: cmd/tracegen writes
// the synthetic Grizzly-like trace and summarizes one read back. No
// experiment reads a trace file, so a real cluster log (e.g. a
// converted Slurm accounting dump) in this format does not drive Fig
// 17. The format is a single JSON object:
//
//	{
//	  "total_nodes": 1490,
//	  "period_s": 10368000,
//	  "jobs": [
//	    {"id": 1, "submit_s": 12.5, "nodes": 4, "base_s": 3600, "bucket": 0},
//	    ...
//	  ]
//	}
//
// bucket is the job's memory-utilization class: 0 = under 25%,
// 1 = 25-50%, 2 = 50% and above (see memuse.Bucket).

type traceJSON struct {
	TotalNodes int       `json:"total_nodes"`
	PeriodS    float64   `json:"period_s"`
	Jobs       []jobJSON `json:"jobs"`
}

type jobJSON struct {
	ID      int     `json:"id"`
	SubmitS float64 `json:"submit_s"`
	Nodes   int     `json:"nodes"`
	BaseS   float64 `json:"base_s"`
	Bucket  int     `json:"bucket"`
}

// Write serializes the trace as JSON.
func (t *Trace) Write(w io.Writer) error {
	out := traceJSON{TotalNodes: t.TotalNodes, PeriodS: t.PeriodS}
	for i := range t.Jobs {
		j := &t.Jobs[i]
		out.Jobs = append(out.Jobs, jobJSON{
			ID: j.ID, SubmitS: j.SubmitS, Nodes: j.Nodes,
			BaseS: j.BaseS, Bucket: int(j.Bucket),
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// ReadTrace parses and validates a JSON trace.
func ReadTrace(r io.Reader) (*Trace, error) {
	var in traceJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("hpc: decoding trace: %w", err)
	}
	if in.TotalNodes <= 0 || in.PeriodS <= 0 {
		return nil, fmt.Errorf("hpc: trace with %d nodes, %.0fs period", in.TotalNodes, in.PeriodS)
	}
	if len(in.Jobs) == 0 {
		return nil, fmt.Errorf("hpc: trace with no jobs")
	}
	tr := &Trace{TotalNodes: in.TotalNodes, PeriodS: in.PeriodS}
	last := -1.0
	for i, j := range in.Jobs {
		switch {
		case j.Nodes <= 0 || j.Nodes > in.TotalNodes:
			return nil, fmt.Errorf("hpc: job %d requests %d of %d nodes", j.ID, j.Nodes, in.TotalNodes)
		case j.BaseS <= 0:
			return nil, fmt.Errorf("hpc: job %d with runtime %v", j.ID, j.BaseS)
		case j.SubmitS < 0:
			return nil, fmt.Errorf("hpc: job %d with negative submit time", j.ID)
		case j.Bucket < 0 || j.Bucket > 2:
			return nil, fmt.Errorf("hpc: job %d with bucket %d", j.ID, j.Bucket)
		case j.SubmitS < last:
			return nil, fmt.Errorf("hpc: jobs not sorted by submit time at index %d", i)
		}
		last = j.SubmitS
		tr.Jobs = append(tr.Jobs, Job{
			ID: j.ID, SubmitS: j.SubmitS, Nodes: j.Nodes,
			BaseS: j.BaseS, Bucket: memuse.Bucket(j.Bucket),
		})
	}
	return tr, nil
}
