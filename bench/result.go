package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"repro/internal/runcache"
)

// hostFacts records where a result was measured.
type hostFacts struct {
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	Go          string `json:"go"`
	OS          string `json:"os"`
	Arch        string `json:"arch"`
	Commit      string `json:"commit"`
	CodeVersion string `json:"code_version"`
}

func currentHost(root string) hostFacts {
	commit := "unknown"
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		cmd := exec.Command("git", "rev-parse", "HEAD")
		cmd.Dir = root
		if out, err := cmd.Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	return hostFacts{
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Go:          runtime.Version(),
		OS:          runtime.GOOS,
		Arch:        runtime.GOARCH,
		Commit:      commit,
		CodeVersion: runcache.CodeVersion(),
	}
}

// metricResult is one metric's raw samples and their distribution.
type metricResult struct {
	Unit    string    `json:"unit"`
	Better  string    `json:"better"`
	Bound   float64   `json:"bound,omitempty"`
	Samples []float64 `json:"samples"`
	summary
}

// workloadResult is everything one workload's runs measured.
type workloadResult struct {
	Name      string `json:"name"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// ErrorRate is failed ÷ attempted operations; an operation is one
	// CLI invocation or one simd job, and a wrong output counts as failed.
	ErrorRate float64 `json:"error_rate"`
	// Ops is the number of operations per round, and TailPct the highest
	// percentile of their latencies with at least ten samples beyond it
	// (0: too few operations for any). OpP50S and OpTailS are the median
	// over rounds of each round's median latency and of its latency at
	// TailPct. They are reported but not gated: the simd sweep's median
	// falls between its cache-served and its computing jobs, and the
	// other workloads have too few operations for a tail.
	Ops     int                      `json:"ops"`
	TailPct int                      `json:"tail_pct"`
	OpP50S  float64                  `json:"op_p50_s"`
	OpTailS float64                  `json:"op_tail_s,omitempty"`
	Metrics map[string]*metricResult `json:"metrics,omitempty"`
	// Layers holds the traced run's per-layer metrics, and SelfS the
	// traced run's self time per span name, in seconds.
	Layers map[string]*metricResult `json:"layers,omitempty"`
	SelfS  map[string]float64       `json:"self_s,omitempty"`
	Errors []string                 `json:"errors,omitempty"`
}

// result is the JSON document -out writes and -compare reads.
type result struct {
	Host      hostFacts         `json:"host"`
	Seed      uint64            `json:"seed"`
	Reps      int               `json:"reps"`
	Seconds   int               `json:"seconds"`
	Smoke     bool              `json:"smoke,omitempty"`
	Trace     bool              `json:"trace,omitempty"`
	Workloads []*workloadResult `json:"workloads"`
}

// addSample appends one sample to the named metric, creating it from its
// definition on first use.
func addSample(m map[string]*metricResult, def metricDef, v float64) {
	r := m[def.Name]
	if r == nil {
		r = &metricResult{Unit: def.Unit, Better: def.Better, Bound: def.Bound}
		m[def.Name] = r
	}
	r.Samples = append(r.Samples, v)
	r.summary = summarize(r.Samples)
}

func writeResult(path string, r *result) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResult(path string) (*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// printSummary writes every metric by name with its unit, median,
// quartiles and sample count.
func printSummary(w io.Writer, r *result) {
	for _, wr := range r.Workloads {
		fmt.Fprintf(w, "%s: correct=%v attempted=%d failed=%d error_rate=%g\n",
			wr.Name, wr.Correct, wr.Attempted, wr.Failed, wr.ErrorRate)
		fmt.Fprintf(w, "  %d operations per round: median latency %.6g s", wr.Ops, wr.OpP50S)
		if wr.TailPct > 0 {
			fmt.Fprintf(w, ", p%d %.6g s", wr.TailPct, wr.OpTailS)
		}
		fmt.Fprintln(w)
		for _, set := range []struct {
			defs []metricDef
			m    map[string]*metricResult
		}{{endToEnd, wr.Metrics}, {perLayer, wr.Layers}} {
			for _, d := range set.defs {
				if mr := set.m[d.Name]; mr != nil {
					fmt.Fprintf(w, "  %-34s %14.6g %-8s median of %d (q1 %.6g, q3 %.6g)\n",
						d.Name, mr.Median, d.Unit, mr.N, mr.Q1, mr.Q3)
				}
			}
		}
		if len(wr.SelfS) > 0 {
			names := make([]string, 0, len(wr.SelfS))
			for n := range wr.SelfS {
				names = append(names, n)
			}
			sort.Slice(names, func(i, j int) bool { return wr.SelfS[names[i]] > wr.SelfS[names[j]] })
			fmt.Fprintln(w, "  self time by span:")
			for _, n := range names {
				fmt.Fprintf(w, "    %-32s %10.4f s\n", n, wr.SelfS[n])
			}
		}
		for _, e := range wr.Errors {
			fmt.Fprintf(w, "  error: %s\n", e)
		}
	}
}

// resultLine is the one-line JSON summary printed last on stdout.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summaryLine condenses a result to medians: the end-to-end metrics of
// an untraced run, or the per-layer metrics of a traced one. With more
// than one workload, metric names are prefixed "<workload>.".
func summaryLine(r *result) resultLine {
	line := resultLine{Correct: true, Metrics: map[string]metricValue{}}
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	for _, wr := range r.Workloads {
		line.Correct = line.Correct && wr.Correct
		line.Attempted += wr.Attempted
		line.Failed += wr.Failed
		m := wr.Metrics
		if r.Trace {
			m = wr.Layers
		}
		for _, d := range defs {
			name := d.Name
			if len(r.Workloads) > 1 {
				name = wr.Name + "." + name
			}
			if mr := m[d.Name]; mr != nil {
				line.Metrics[name] = metricValue{Value: mr.Median, Unit: d.Unit}
			}
		}
	}
	return line
}
