package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestResultRoundTrip(t *testing.T) {
	wr := &workloadResult{
		Name: "simd-sweep", Correct: true, Attempted: 101, Failed: 0, Ops: 100, TailPct: 90,
		Metrics: map[string]*metricResult{}, Layers: map[string]*metricResult{},
		SelfS: map[string]float64{"simd.server.submit": 12.5},
	}
	for _, v := range []float64{21.7, 22.9, 22.1} {
		addSample(wr.Metrics, endToEnd[1], v)
	}
	addSample(wr.Layers, perLayer[0], 81.25)
	r := &result{Host: currentHost(".."), Seed: 3, Reps: 3, Workloads: []*workloadResult{wr}}
	path := filepath.Join(t.TempDir(), "r.json")
	if err := writeResult(path, r); err != nil {
		t.Fatal(err)
	}
	back, err := readResult(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, r) {
		t.Errorf("round trip changed the result:\n got %+v\nwant %+v", back.Workloads[0], r.Workloads[0])
	}
	if m := back.Workloads[0].Metrics["wall_s"]; m.Median != 22.1 || m.N != 3 || m.Bound != 0.25 {
		t.Errorf("wall_s = %+v", m)
	}

	line := summaryLine(back)
	if _, ok := line.Metrics["wall_s"]; !ok || !line.Correct || line.Attempted != 101 {
		t.Errorf("summary line = %+v", line)
	}
}

func samples(def metricDef, xs ...float64) *metricResult {
	m := map[string]*metricResult{}
	for _, x := range xs {
		addSample(m, def, x)
	}
	return m[def.Name]
}

func TestJudge(t *testing.T) {
	wall := endToEnd[1]
	wall.Bound = 0.10
	parent := samples(wall, 10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.02, 9.98, 10.01, 9.99)
	for name, c := range map[string]struct {
		change *metricResult
		want   string
	}{
		"faster": {samples(wall, 8.0, 8.1, 7.9, 8.0, 8.05, 7.95, 8.02, 7.98, 8.01, 7.99), "improved"},
		"slower": {samples(wall, 12.0, 12.1, 11.9, 12.0, 12.05, 11.95, 12.02, 11.98, 12.01, 11.99), "regressed"},
		"same":   {samples(wall, 10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.02, 9.98, 10.01, 9.99), "unchanged"},
		"noisy":  {samples(wall, 8, 12, 9, 11, 10, 8.5, 11.5, 9.5, 10.5, 10), "unresolved"},
	} {
		if got, _, _ := judge(parent, c.change, wall.Bound); got != c.want {
			t.Errorf("%s: judge = %s, want %s", name, got, c.want)
		}
	}
	// A higher-is-better metric flips the direction.
	rate := metricDef{Name: "rate", Unit: "1/s", Better: "higher", Bound: 0.1}
	if got, _, _ := judge(samples(rate, 10, 10, 10), samples(rate, 8, 8, 8), 0.1); got != "regressed" {
		t.Errorf("lower rate judged %s, want regressed", got)
	}
}

// TestBenchmarkJSONMatches pins BENCHMARK.json at the repository root to
// the metric and workload lists the harness reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end = %+v, want %+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the harness's list")
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d = %+v, want %s: %s", i, w, workloads[i].name, workloads[i].why)
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s listed twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// TestGoldenFullMatchesSnapshot ties the "full 1" digest to the
// committed full-scale output.
func TestGoldenFullMatchesSnapshot(t *testing.T) {
	data, err := os.ReadFile("../experiments_full.txt")
	if err != nil {
		t.Fatal(err)
	}
	b, err := newBench(context.Background(), "..", t.TempDir(), 1, false, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	if err := b.checkOutput("full", 1, 17, data); err != nil {
		t.Error(err)
	}
	// Without a golden digest the shape check applies.
	if err := b.checkOutput("full", 99, 17, data); err != nil {
		t.Errorf("shape check rejected the snapshot: %v", err)
	}
	if err := b.checkOutput("full", 99, 17, []byte("Fig 99 — nothing\nx\n")); err == nil {
		t.Error("shape check accepted a foreign table")
	}
}
