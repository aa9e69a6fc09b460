package shard

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/backoff"
	"repro/internal/faultinject"
	"repro/internal/obs"
)

// fastRetry keeps fault-heavy tests quick without changing semantics.
var fastRetry = backoff.Policy{Base: time.Millisecond, Max: 5 * time.Millisecond, Budget: 3}

// faultedPool builds a single-worker pool with the given plan armed.
func faultedPool(t *testing.T, plan *faultinject.Plan, reg *obs.Registry) *Pool {
	t.Helper()
	srv, _ := newTestWorker(t, "")
	return NewPool(PoolOptions{
		Workers: []string{srv.URL},
		Backoff: fastRetry,
		Faults:  plan,
		Reg:     reg,
	})
}

// TestFaultPostRefuse: injected connection refusals retry away — the
// merge is byte-identical to the sequential run and the faults are
// counted as both injected and recovered.
func TestFaultPostRefuse(t *testing.T) {
	units := mcUnits()
	want := seqPayloads(t, units)
	reg := obs.NewRegistry()
	plan := faultinject.New(11).Observe(reg).Arm(FaultPostRefuse, faultinject.Rule{P: 1, Count: 3})
	p := faultedPool(t, plan, reg)
	checkMerged(t, units, p.Run(units), want)
	if plan.Injected(FaultPostRefuse) != 3 {
		t.Errorf("injected = %d, want 3", plan.Injected(FaultPostRefuse))
	}
	snap := reg.Snapshot()
	if snap.Counters["fault/recovered/shard/recover/retry"]+snap.Counters["fault/recovered/shard/recover/local"] == 0 {
		t.Error("no recovery counted for refused dispatches")
	}
}

// TestFaultPostLatency: injected latency spikes cost time, never bytes.
func TestFaultPostLatency(t *testing.T) {
	units := mcUnits()
	want := seqPayloads(t, units)
	plan := faultinject.New(12).Arm(FaultPostLatency, faultinject.Rule{P: 0.5, Delay: 5 * time.Millisecond})
	p := faultedPool(t, plan, obs.NewRegistry())
	checkMerged(t, units, p.Run(units), want)
	if plan.Injected(FaultPostLatency) == 0 {
		t.Error("latency fault never fired at p=0.5 over 8 units")
	}
}

// TestFaultPostDrop: a connection cut mid-body is a retried failure.
func TestFaultPostDrop(t *testing.T) {
	units := mcUnits()
	want := seqPayloads(t, units)
	reg := obs.NewRegistry()
	plan := faultinject.New(13).Arm(FaultPostDrop, faultinject.Rule{P: 1, Count: 2})
	p := faultedPool(t, plan, reg)
	checkMerged(t, units, p.Run(units), want)
	if plan.Injected(FaultPostDrop) != 2 {
		t.Errorf("injected = %d, want 2", plan.Injected(FaultPostDrop))
	}
	if reg.Snapshot().Counters["shard/retries"] < 2 {
		t.Error("dropped bodies were not counted as retries")
	}
}

// TestFaultPostDup: duplicate delivery is harmless — the worker executes
// the duplicate (content-addressed, so same bytes) and the coordinator's
// positional commit lands exactly once.
func TestFaultPostDup(t *testing.T) {
	units := mcUnits()
	want := seqPayloads(t, units)
	reg := obs.NewRegistry()
	plan := faultinject.New(14).Observe(reg).Arm(FaultPostDup, faultinject.Rule{P: 1, Count: 2})
	srv, wreg := newTestWorker(t, "")
	p := NewPool(PoolOptions{Workers: []string{srv.URL}, Backoff: fastRetry, Faults: plan, Reg: reg})
	checkMerged(t, units, p.Run(units), want)
	if plan.Injected(FaultPostDup) != 2 {
		t.Errorf("injected = %d, want 2", plan.Injected(FaultPostDup))
	}
	// The worker saw the duplicates; the merge did not.
	if got := wreg.Snapshot().Counters["shard/worker/units"]; got != uint64(len(units)+2) {
		t.Errorf("worker handled %d units, want %d", got, len(units)+2)
	}
	if got := reg.Snapshot().Counters["shard/completed"]; got != uint64(len(units)) {
		t.Errorf("completed = %d, want %d", got, len(units))
	}
}

// TestFaultPostSkew: a version-skewed dispatch is rejected by the
// worker's real 409 guard and retried under the true version.
func TestFaultPostSkew(t *testing.T) {
	units := mcUnits()
	want := seqPayloads(t, units)
	reg := obs.NewRegistry()
	plan := faultinject.New(15).Arm(FaultPostSkew, faultinject.Rule{P: 1, Count: 2})
	p := faultedPool(t, plan, reg)
	checkMerged(t, units, p.Run(units), want)
	if plan.Injected(FaultPostSkew) != 2 {
		t.Errorf("injected = %d, want 2", plan.Injected(FaultPostSkew))
	}
	if reg.Snapshot().Counters["shard/retries"] < 2 {
		t.Error("skewed dispatches were not rejected")
	}
}

// TestBreakerReprobesAndRecovers: a worker that fails long enough to
// open its breaker is demoted to local execution, then re-probed after
// ProbeAfter and returned to the fleet once healthy — with the merge
// byte-identical throughout.
func TestBreakerReprobesAndRecovers(t *testing.T) {
	units := mcUnits()
	want := seqPayloads(t, units)
	reg := obs.NewRegistry()

	var failing atomic.Bool
	failing.Store(true)
	worker := NewWorker(testVersion, nil, obs.NewRegistry())
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if failing.Load() {
			http.Error(rw, "injected outage", http.StatusInternalServerError)
			return
		}
		worker.Handler().ServeHTTP(rw, r)
	}))
	defer srv.Close()

	p := NewPool(PoolOptions{
		Workers:    []string{srv.URL},
		Backoff:    fastRetry,
		DeadAfter:  2,
		ProbeAfter: time.Millisecond,
		Reg:        reg,
	})

	// Outage run: breaker opens, every unit still lands via local
	// fallback.
	checkMerged(t, units, p.Run(units), want)
	if !p.workers[0].br.isOpen() {
		t.Fatal("breaker did not open during the outage")
	}
	snap := reg.Snapshot()
	if snap.Counters["shard/breaker/open"] == 0 || snap.Counters["shard/worker_deaths"] != 1 {
		t.Fatalf("open transitions not counted: %v", snap.Counters)
	}

	// Heal the worker; the probe window has long passed at 1ms.
	failing.Store(false)
	time.Sleep(5 * time.Millisecond)
	checkMerged(t, units, p.Run(units), want)
	if p.workers[0].br.isOpen() {
		t.Fatal("healthy worker still demoted after probe window")
	}
	snap = reg.Snapshot()
	if snap.Counters["shard/breaker/halfopen"] == 0 || snap.Counters["shard/breaker/close"] == 0 {
		t.Fatalf("probe transitions not counted: %v", snap.Counters)
	}
	if snap.Counters["shard/completed"] == 0 {
		t.Error("recovered worker completed nothing")
	}
	// worker_deaths keeps its one-way meaning: re-probes never re-count.
	if snap.Counters["shard/worker_deaths"] != 1 {
		t.Errorf("worker_deaths = %d after recovery, want 1", snap.Counters["shard/worker_deaths"])
	}
}

// TestRunContextCancelled: a cancelled base context drains every unit
// to local execution — shutdown costs remote offload, never output bytes.
func TestRunContextCancelled(t *testing.T) {
	units := mcUnits()
	want := seqPayloads(t, units)
	reg := obs.NewRegistry()
	srv, _ := newTestWorker(t, "")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := NewPool(PoolOptions{Workers: []string{srv.URL}, Backoff: fastRetry, BaseContext: ctx, Reg: reg})
	checkMerged(t, units, p.Run(units), want)
	if got := reg.Snapshot().Counters["shard/local"]; got != uint64(len(units)) {
		t.Errorf("local executions = %d, want all %d", got, len(units))
	}
}
