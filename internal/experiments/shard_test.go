package experiments

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/runcache"
	"repro/internal/shard"
)

// TestShardedSuiteByteIdentical pins the coordinator-side guarantee of
// scale-out execution: a suite fanning its run matrix out to two worker
// processes over a shared content-addressed cache renders the exact
// bytes of the sequential in-process run — node simulations (Fig 14)
// and Monte-Carlo margin sweeps (Fig 11) both — and a warm rerun over
// the shared store recomputes nothing anywhere in the fleet.
func TestShardedSuiteByteIdentical(t *testing.T) {
	entries := []Entry{entry(t, "fig14"), entry(t, "fig11")}
	render := func(s *Suite) string {
		tabs := s.Run(entries)
		return tabs[0].String() + tabs[1].String()
	}

	seq := New(Options{Seed: 5, Quick: true, Seeds: 1, Workers: 2})
	want := render(seq)

	dir := t.TempDir()
	openCache := func() *runcache.Cache {
		c, err := runcache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	workers := make([]string, 2)
	for i := range workers {
		srv := httptest.NewServer(shard.NewWorker("test-v1", openCache(), nil).Handler())
		t.Cleanup(srv.Close)
		workers[i] = srv.URL
	}

	shardedRun := func() (*Suite, *obs.Registry) {
		reg := obs.NewRegistry()
		pool := shard.NewPool(shard.PoolOptions{Workers: workers, Cache: openCache(), Reg: reg})
		s := New(Options{Seed: 5, Quick: true, Seeds: 1, Workers: 2,
			Cache: openCache(), CacheVersion: "test-v1", Shard: pool})
		if got := render(s); got != want {
			t.Fatal("sharded run rendered different bytes than the sequential run")
		}
		return s, reg
	}

	cold, coldReg := shardedRun()
	cs := coldReg.Snapshot()
	if cs.Counters["shard/dispatched"] == 0 {
		t.Error("cold sharded run dispatched nothing to the fleet")
	}
	if cold.ComputedRuns() == 0 {
		t.Error("cold sharded run reports zero computed runs; worker results miscounted")
	}

	// Warm rerun: every unit is already in the shared store, so the
	// pool's prefill satisfies the whole matrix without a single
	// dispatch or local execution — zero re-simulation fleet-wide.
	warm, warmReg := shardedRun()
	if got := warm.ComputedRuns(); got != 0 {
		t.Errorf("warm sharded run re-simulated %d cells, want 0", got)
	}
	ws := warmReg.Snapshot()
	if ws.Counters["shard/dispatched"] != 0 {
		t.Errorf("warm run dispatched %d units, want 0", ws.Counters["shard/dispatched"])
	}
	if ws.Counters["shard/local"] != 0 {
		t.Errorf("warm run executed %d units locally, want 0", ws.Counters["shard/local"])
	}
	if ws.Counters["shard/cache_hits"] == 0 {
		t.Error("warm run recorded no shared-cache hits")
	}
}

// TestLargestPlannedBatchFitsWorkerLimit posts a worker the largest
// front-end batch a full-scale `-all` or `-ablations` run can send: the
// largest group of the union of both plans (Hierarchy1 hpcg, every
// design of Figs 5 and 12 and of the node ablations). The worker is
// built under another code version, a check it makes only after the
// body has decoded, so its 409 shows the batch passed the body limit
// without simulating anything.
func TestLargestPlannedBatchFitsWorkerLimit(t *testing.T) {
	s := New(Options{Seed: 1})
	groups := node.GroupByFrontEnd(s.plan(append(Registry(), Ablations()...)), func(c cell) (node.FrontEndKey, bool) {
		return node.FrontEndKeyOf(s.cellConfig(c), c.prof), true
	})
	largest := groups[0]
	for _, g := range groups {
		if len(g) > len(largest) {
			largest = g
		}
	}
	units := make([]shard.Unit, len(largest))
	for i, c := range largest {
		units[i] = shard.NewNodeUnit("plan-v1", s.nodeConfig(c), c.prof)
	}
	body, err := json.Marshal(map[string]any{"key": units[0].Key, "units": units})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(shard.NewWorker("worker-v1", nil, nil).Handler())
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/shard/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("batch of %d units (%d bytes) answered %s, want 409 from the version check",
			len(units), len(body), resp.Status)
	}
}
