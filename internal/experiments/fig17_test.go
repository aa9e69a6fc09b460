package experiments

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"repro/internal/montecarlo"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/runcache"
	"repro/internal/shard"
)

// renderFig17 renders quick Fig 17 with one suite over the store in dir.
func renderFig17(t *testing.T, dir string, opt Options) (string, *Suite, *runcache.Cache) {
	t.Helper()
	c, err := runcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	opt.Seed, opt.Quick, opt.Cache, opt.CacheVersion = 3, true, c, "test-v1"
	s := New(opt)
	return entry(t, "fig17").Run(s).String(), s, c
}

// TestFig17WarmReplayReadsEverything: a cold Fig 17 stores its cells, its
// Monte-Carlo ranges and its six cluster-simulation summaries, and a warm
// replay at another worker count reads every one of them, stores nothing
// and renders the same bytes.
func TestFig17WarmReplayReadsEverything(t *testing.T) {
	dir := t.TempDir()
	cold, s1, c1 := renderFig17(t, dir, Options{Workers: 1})
	ranges := parallel.Chunks(s1.monteCarloConfig().Trials, mcUnitShards*montecarlo.ShardTrials)
	entries := s1.CachedRuns() + ranges + 6
	if got := c1.Len(); got != entries {
		t.Errorf("cold run stored %d entries, want %d cells + %d ranges + 6 simulations", got, s1.CachedRuns(), ranges)
	}

	warm, s2, c2 := renderFig17(t, dir, Options{Workers: 4})
	if warm != cold {
		t.Fatal("warm Fig 17 rendered different bytes than the cold run")
	}
	if got := s2.ComputedRuns(); got != 0 {
		t.Errorf("warm run re-simulated %d cells", got)
	}
	if st := c2.Stats(); st.Hits != uint64(entries) || st.Puts != 0 {
		t.Errorf("warm run read %d hits and stored %d entries, want %d and 0", st.Hits, st.Puts, entries)
	}
}

// TestFig17CheckedObservedReplay: checked, observed Fig 17 renders the
// bytes, violations and metrics of a store-less run both cold and warm
// over a store (once the counters of where cells ran are dropped), the
// warm run re-simulating nothing, and a violation planted in a stored
// summary is reported by the next replay: a checked simulation's
// violations and observations travel in its payload.
func TestFig17CheckedObservedReplay(t *testing.T) {
	ref := obs.NewRegistry()
	refSuite := New(Options{Seed: 3, Quick: true, Workers: 2, Check: true, Obs: ref})
	want := entry(t, "fig17").Run(refSuite).String()

	dir := t.TempDir()
	run := func(workers int) (*Suite, *obs.Registry, *runcache.Cache) {
		reg := obs.NewRegistry()
		got, s, c := renderFig17(t, dir, Options{Workers: workers, Check: true, Obs: reg})
		if got != want {
			t.Fatalf("Workers=%d: checked observed Fig 17 over a store rendered different bytes", workers)
		}
		return s, reg, c
	}
	cold, coldReg, _ := run(1)
	warm, warmReg, store := run(4)
	if got := warm.ComputedRuns(); got != 0 {
		t.Errorf("warm run re-simulated %d cells", got)
	}
	if st := store.Stats(); st.Puts != 0 {
		t.Errorf("warm run stored %d entries", st.Puts)
	}
	if !reflect.DeepEqual(cold.Violations(), warm.Violations()) || len(warm.Violations()) != 0 {
		t.Errorf("violations: cold %v, warm %v, want none", cold.Violations(), warm.Violations())
	}
	placed := func(name string) bool {
		return name == "experiments/recordings" || name == "experiments/runcache/computed"
	}
	wantMetrics := placementFree(ref, placed)
	for name, reg := range map[string]*obs.Registry{"cold": coldReg, "warm": warmReg} {
		if got := placementFree(reg, placed); !reflect.DeepEqual(got, wantMetrics) {
			t.Errorf("%s metrics differ from the store-less run's beyond the placement counters", name)
		}
	}
	if warmReg.Snapshot().Counters["fig17/sim0/slurm-default/sched/jobs"] == 0 {
		t.Error("warm run carries no fig17/sim0 scheduler metrics")
	}

	// Plant a violation in the stored summary of the margin-aware
	// Hierarchy1 simulation.
	u := warm.fig17Units()[2]
	k, err := u.RunKey()
	if err != nil {
		t.Fatal(err)
	}
	payload, ok := store.Get(k)
	if !ok {
		t.Fatal("checked simulation missing from the store")
	}
	res, vs, ob, err := shard.DecodeCheckedHPC(payload)
	if err != nil {
		t.Fatal(err)
	}
	planted := obs.Violation{Source: u.HPC.Scope, Name: "stored-violation", Detail: "replayed"}
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	for _, v := range []any{res, append(vs, planted), ob} {
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Put(k, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	replayed, _, _ := run(2)
	if vs := replayed.Violations(); len(vs) != 1 || vs[0] != planted {
		t.Errorf("replay reported %v, want the planted violation", vs)
	}
}

// TestFig17FleetSendsOneTraceBatch: over an httptest fleet, Fig 17
// renders the bytes of an in-process run, and its six cluster
// simulations travel as one batch.
func TestFig17FleetSendsOneTraceBatch(t *testing.T) {
	want := entry(t, "fig17").Run(New(Options{Seed: 3, Quick: true, Workers: 2})).String()

	var mu sync.Mutex
	var hpcBatches []int
	var urls []string
	for i := 0; i < 2; i++ {
		worker := shard.NewWorker("test-v1", nil, nil).Handler()
		srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			body, _ := io.ReadAll(r.Body)
			var b struct {
				Units []shard.Unit `json:"units"`
			}
			if json.Unmarshal(body, &b) == nil {
				n := 0
				for _, u := range b.Units {
					if u.Type == shard.UnitHPC {
						n++
					}
				}
				if n > 0 {
					mu.Lock()
					hpcBatches = append(hpcBatches, n)
					mu.Unlock()
				}
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
			worker.ServeHTTP(rw, r)
		}))
		t.Cleanup(srv.Close)
		urls = append(urls, srv.URL)
	}
	pool := shard.NewPool(shard.PoolOptions{Workers: urls})
	s := New(Options{Seed: 3, Quick: true, Workers: 2, CacheVersion: "test-v1", Shard: pool})
	if got := entry(t, "fig17").Run(s).String(); got != want {
		t.Error("Fig 17 over a fleet rendered different bytes than the in-process run")
	}
	if !reflect.DeepEqual(hpcBatches, []int{6}) {
		t.Errorf("cluster simulations went out in batches of %v, want one batch of 6", hpcBatches)
	}
	if local, _ := pool.Fallbacks(); local != 0 {
		t.Errorf("%d units ran locally", local)
	}
}
