package shard

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"repro/internal/hpc"
	"repro/internal/memuse"
	"repro/internal/obs"
	"repro/internal/runcache"
)

// smallSpec is a trace small enough for unit tests: 400 jobs on 64 nodes.
func smallSpec(seed uint64) hpc.TraceSpec {
	return hpc.TraceSpec{Jobs: 400, Nodes: 64, PeriodS: hpc.TracePeriodS / 32, TargetUtil: hpc.TargetNodeUtil,
		Usage: memuse.GeneratorConfig{Jobs: 300, Seed: seed}, Seed: seed}
}

// fig17Materials are the four systems Fig 17 simulates on spec's trace
// (conventional, +17% control, margin-aware and default on the grouped
// cluster), the first three checked under Fig 17's scopes.
func fig17Materials(spec hpc.TraceSpec) []HPCMaterial {
	n := spec.Nodes
	grouped := hpc.GroupedNodes(n, 0.62, 0.36)
	return []HPCMaterial{
		{Trace: spec, Nodes: map[int]int{0: n}, Policy: hpc.PolicyDefault, At800: 1, At600: 1, Seed: 1,
			Check: true, Scope: "fig17/sim0/slurm-default"},
		{Trace: spec, Nodes: map[int]int{0: n + n*17/100}, Policy: hpc.PolicyDefault, At800: 1, At600: 1, Seed: 1,
			Check: true, Scope: "fig17/sim1/slurm-default"},
		{Trace: spec, Nodes: grouped, Policy: hpc.PolicyMarginAware, At800: 1.21, At600: 1.17, Seed: 1,
			Check: true, Scope: "fig17/sim2/margin-aware"},
		{Trace: spec, Nodes: grouped, Policy: hpc.PolicyDefault, At800: 1.21, At600: 1.17, Seed: 1},
	}
}

// TestHPCBatchSharesOneTrace: cluster simulations of one trace run as one
// batch, at any worker count, and each payload is the simulation's
// summary: the aggregates of a direct hpc.SimulateObserved run, without
// the per-job list, plus, for a checked unit, its violations (none) and
// its registry under the unit's scope. A pool sends one batch per trace,
// and a warm store answers every unit without computing it.
func TestHPCBatchSharesOneTrace(t *testing.T) {
	a, b := smallSpec(1), smallSpec(2)
	var units []Unit
	for _, m := range append(fig17Materials(a), fig17Materials(b)[3]) {
		units = append(units, NewHPCUnit(testVersion, m))
	}
	want := seqPayloads(t, units)
	for _, workers := range []int{1, 3} {
		out, recorded, err := Execute(units, nil, workers)
		if err != nil || recorded != 0 {
			t.Fatalf("workers %d: recorded %d, %v", workers, recorded, err)
		}
		checkMerged(t, units, out, want)
	}

	for i, u := range units {
		m := u.HPC
		reg := obs.NewRegistry()
		res, vs := hpc.SimulateObserved(m.Trace.Generate(), hpc.NewCluster(m.Nodes), m.Policy,
			hpc.HeteroDMRModel(m.At800, m.At600), m.Seed, reg, m.Scope)
		sum := *res
		sum.Jobs = nil
		if got, err := DecodeHPCResult(want[i]); err != nil || !reflect.DeepEqual(got, sum) {
			t.Errorf("unit %d: summary %+v (%v), want %+v", i, got, err, sum)
		}
		if !m.Check {
			if _, _, _, err := DecodeCheckedHPC(want[i]); err == nil {
				t.Errorf("unit %d: DecodeCheckedHPC accepted an unchecked payload", i)
			}
			continue
		}
		got, gotVs, ob, err := DecodeCheckedHPC(want[i])
		if err != nil || !reflect.DeepEqual(got, sum) || len(gotVs) != 0 || len(vs) != 0 {
			t.Errorf("unit %d: checked payload %+v, violations %v (%v), want %+v and none", i, got, gotVs, err, sum)
		}
		if !reflect.DeepEqual(ob.Metrics, reg.Snapshot()) || len(ob.Events) != 0 {
			t.Errorf("unit %d: checked payload carries %v, want the direct run's %v", i, ob.Metrics.Names, reg.Snapshot().Names)
		}
		if ob.Metrics.Counters[m.Scope+"/sched/jobs"] != uint64(m.Trace.Jobs) {
			t.Errorf("unit %d: no %s/sched/jobs count in %v", i, m.Scope, ob.Metrics.Names)
		}
	}

	dir := t.TempDir()
	w, wreg := newTestWorker(t, dir)
	cache, err := runcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	checkMerged(t, units, NewPool(PoolOptions{Workers: []string{w.URL}, Cache: cache, Reg: reg}).Run(units), want)
	if c := reg.Snapshot().Counters; c["shard/dispatched"] != 2 || c["shard/computed"] != uint64(len(units)) {
		t.Errorf("pool dispatched %d batches computing %d units, want 2 and %d",
			c["shard/dispatched"], c["shard/computed"], len(units))
	}
	if got := wreg.Snapshot().Counters["shard/worker/recordings"]; got != 0 {
		t.Errorf("cluster simulations recorded %d node front ends", got)
	}
	warm, _, err := Execute(units, cache, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkMerged(t, units, warm, want)
	for i, r := range warm {
		if r.Computed {
			t.Errorf("unit %d recomputed over a warm store", i)
		}
	}
}

// TestMalformedHPCUnitsRefused: a correctly keyed cluster simulation the
// simulator cannot run is refused before anything runs. Execute returns
// an error naming the unit, never a panic, and a worker answers a batch
// holding one with 400 naming it, computing nothing. Non-finite values
// cannot travel as JSON, so those cases run only through Execute.
func TestMalformedHPCUnitsRefused(t *testing.T) {
	good := fig17Materials(smallSpec(1))[2]
	if _, err := NewHPCUnit(testVersion, good).RunKey(); err != nil {
		t.Fatalf("valid material refused: %v", err)
	}
	srv, reg := newTestWorker(t, "")
	ok := mcUnits()[0]
	cases := map[string]func(m *HPCMaterial){
		"zero jobs":            func(m *HPCMaterial) { m.Trace.Jobs = 0 },
		"too many jobs":        func(m *HPCMaterial) { m.Trace.Jobs = hpc.MaxTraceJobs + 1 },
		"no usage jobs":        func(m *HPCMaterial) { m.Trace.Usage.Jobs = -1 },
		"16 nodes":             func(m *HPCMaterial) { m.Trace.Nodes = 16 },
		"too many nodes":       func(m *HPCMaterial) { m.Trace.Nodes = hpc.MaxTraceNodes + 1 },
		"zero period":          func(m *HPCMaterial) { m.Trace.PeriodS = 0 },
		"NaN period":           func(m *HPCMaterial) { m.Trace.PeriodS = math.NaN() },
		"infinite period":      func(m *HPCMaterial) { m.Trace.PeriodS = math.Inf(1) },
		"utilization above 1":  func(m *HPCMaterial) { m.Trace.TargetUtil = 1.5 },
		"infinite utilization": func(m *HPCMaterial) { m.Trace.TargetUtil = math.Inf(1) },
		"unknown policy":       func(m *HPCMaterial) { m.Policy = 7 },
		"negative margin":      func(m *HPCMaterial) { m.Nodes = map[int]int{-200: 64} },
		"negative nodes":       func(m *HPCMaterial) { m.Nodes = map[int]int{800: -1, 0: 65} },
		"too few nodes":        func(m *HPCMaterial) { m.Nodes = map[int]int{800: 40, 0: 23} },
		"too many cluster nodes": func(m *HPCMaterial) {
			m.Nodes = map[int]int{800: 2 * hpc.MaxTraceNodes, 0: 1}
		},
		"too many groups": func(m *HPCMaterial) {
			m.Nodes = map[int]int{}
			for g := 0; g <= maxClusterGroups; g++ {
				m.Nodes[200*g] = 8
			}
		},
		"no nodes":         func(m *HPCMaterial) { m.Nodes = nil },
		"speedup below 1":  func(m *HPCMaterial) { m.At600 = 0.9 },
		"NaN speedup":      func(m *HPCMaterial) { m.At800 = math.NaN() },
		"infinite speedup": func(m *HPCMaterial) { m.At800 = math.Inf(1) },
	}
	for name, mutate := range cases {
		m := good
		m.Nodes = map[int]int{}
		for k, v := range good.Nodes {
			m.Nodes[k] = v
		}
		mutate(&m)
		bad := NewHPCUnit(testVersion, m)
		_, _, err := Execute([]Unit{ok, bad}, nil, 2)
		var ue *unitError
		if !errors.As(err, &ue) || !strings.Contains(err.Error(), bad.Key) {
			t.Errorf("%s: Execute returned %v, want a unit error naming %s", name, err, bad.Key)
		}
		body, err := json.Marshal(batchRequest{Key: ok.Key, Units: []Unit{ok, bad}})
		if err != nil {
			continue // a non-finite value has no JSON form
		}
		resp, err := http.Post(srv.URL+batchPath, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var msg bytes.Buffer
		msg.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg.String(), bad.Key) {
			t.Errorf("%s: worker answered %s %q, want 400 naming %s", name, resp.Status, msg.String(), bad.Key)
		}
	}
	bodyless := NewHPCUnit(testVersion, good)
	bodyless.HPC = nil
	if _, _, err := Execute([]Unit{bodyless}, nil, 1); err == nil {
		t.Error("hpc unit without body executed")
	}
	if got := reg.Snapshot().Counters["shard/worker/computed"]; got != 0 {
		t.Errorf("worker computed %d units of refused batches", got)
	}
}
