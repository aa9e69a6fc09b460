package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/backoff"
	"repro/internal/dramspec"
	"repro/internal/hpc"
	"repro/internal/memctrl"
	"repro/internal/memuse"
	"repro/internal/montecarlo"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/runcache"
	"repro/internal/workload"
)

const testVersion = "shard-test-v1"

func mcConfig() montecarlo.Config {
	return montecarlo.Config{
		ModulesPerChannel: 2,
		ChannelsPerNode:   4,
		Trials:            8 * montecarlo.ShardTrials,
		MeanMTs:           780,
		StdevMTs:          190,
		SpecRate:          dramspec.DDR4_3200,
		Seed:              42,
	}
}

// mcUnits carves the trial space into one unit per RNG shard.
func mcUnits() []Unit {
	cfg := mcConfig()
	var units []Unit
	for lo := 0; lo < cfg.Trials; lo += montecarlo.ShardTrials {
		units = append(units, NewMCUnit(testVersion, cfg, montecarlo.MarginAware, LevelChannel, lo, lo+montecarlo.ShardTrials))
	}
	return units
}

// seqPayloads executes the units one by one, each as a batch of one with
// no cache — the sequential baseline every pool configuration must
// reproduce byte for byte.
func seqPayloads(t *testing.T, units []Unit) [][]byte {
	t.Helper()
	out := make([][]byte, len(units))
	for i, u := range units {
		res, _, err := Execute([]Unit{u}, nil, 1)
		if err != nil {
			t.Fatalf("sequential execute %d: %v", i, err)
		}
		if !res[0].Computed {
			t.Fatalf("sequential execute %d did not compute", i)
		}
		out[i] = res[0].Payload
	}
	return out
}

func checkMerged(t *testing.T, units []Unit, out []UnitResult, want [][]byte) {
	t.Helper()
	if len(out) != len(units) {
		t.Fatalf("got %d results for %d units", len(out), len(units))
	}
	for i := range out {
		if !bytes.Equal(out[i].Payload, want[i]) {
			t.Errorf("slot %d payload diverges from sequential run", i)
		}
	}
}

func TestUnitKeyRoundTripsJSON(t *testing.T) {
	units := mcUnits()
	wire, err := json.Marshal(units[0])
	if err != nil {
		t.Fatal(err)
	}
	var decoded Unit
	if err := json.Unmarshal(wire, &decoded); err != nil {
		t.Fatal(err)
	}
	k, err := decoded.RunKey()
	if err != nil {
		t.Fatalf("decoded unit fails key verification: %v", err)
	}
	if k.String() != units[0].Key {
		t.Fatalf("key changed across JSON: %s != %s", k, units[0].Key)
	}

	tampered := decoded
	tampered.MC = &MCMaterial{}
	*tampered.MC = *decoded.MC
	tampered.MC.Lo += montecarlo.ShardTrials
	tampered.MC.Hi += montecarlo.ShardTrials
	if _, err := tampered.RunKey(); err == nil {
		t.Error("tampered material passed key verification")
	}

	if _, err := (Unit{Type: "bogus"}).RunKey(); err == nil {
		t.Error("unknown unit type passed verification")
	}

	badLevel := decoded
	badLevel.MC = &MCMaterial{}
	*badLevel.MC = *decoded.MC
	badLevel.MC.Level = "rack"
	badLevel.Key = runcache.KeyOf(testVersion, *badLevel.MC).String()
	if _, err := badLevel.RunKey(); err == nil {
		t.Error("unknown MC level passed verification")
	}
}

// TestUnitWireAndKeyPinned pins the wire JSON, key included, of one
// checked node unit, one Monte-Carlo unit and one checked cluster
// simulation to testdata/units.golden.
// The material types are both the wire bodies and what the keys hash
// (runcache.Canonical hashes type and field names, not json tags), so
// renaming either moves every stored entry or breaks mixed-version
// fleets. Each golden line also decodes into a unit that passes key
// verification.
func TestUnitWireAndKeyPinned(t *testing.T) {
	fast := dramspec.TableII(dramspec.SettingFreqLatMargin, dramspec.DDR4_3200, 800)
	units := []Unit{
		NewNodeUnit(testVersion, node.Config{
			H:                   node.Hierarchy1(),
			Replication:         memctrl.ReplicationHeteroDMR,
			Spec:                dramspec.TableII(dramspec.SettingSpec, dramspec.DDR4_3200, 800),
			Fast:                &fast,
			Seed:                1,
			InstructionsPerCore: 40_000,
			WarmupInstructions:  15_000,
			Check:               true,
		}, workload.ByName("hpcg")),
		NewMCUnit(testVersion, mcConfig(), montecarlo.MarginAware, LevelChannel, montecarlo.ShardTrials, 2*montecarlo.ShardTrials),
		NewHPCUnit(testVersion, HPCMaterial{
			Trace: hpc.TraceSpec{Jobs: 6_000, Nodes: 256, PeriodS: hpc.TracePeriodS / 8, TargetUtil: hpc.TargetNodeUtil,
				Usage: memuse.GeneratorConfig{Jobs: 5_000, Seed: 1}, Seed: 1},
			Nodes:  hpc.GroupedNodes(256, 0.62, 0.36),
			Policy: hpc.PolicyMarginAware,
			At800:  1.21,
			At600:  1.17,
			Seed:   1,
			Check:  true,
			Scope:  "fig17/sim2/margin-aware",
		}),
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "units.golden"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(golden), "\n"), "\n")
	if len(lines) != len(units) {
		t.Fatalf("golden holds %d units, want %d", len(lines), len(units))
	}
	for i, u := range units {
		wire, err := json.Marshal(u)
		if err != nil {
			t.Fatal(err)
		}
		if string(wire) != lines[i] {
			t.Errorf("%s unit wire drifted:\n got: %s\nwant: %s", u.Type, wire, lines[i])
		}
		var decoded Unit
		if err := json.Unmarshal([]byte(lines[i]), &decoded); err != nil {
			t.Fatal(err)
		}
		if _, err := decoded.RunKey(); err != nil {
			t.Errorf("golden %s unit fails key verification: %v", decoded.Type, err)
		}
	}
}

// TestRangeUnitsReproduceFullRun: decoding and concatenating the units'
// payloads reproduces the in-process Monte-Carlo run bit for bit — the
// determinism the ordered merge builds on.
func TestRangeUnitsReproduceFullRun(t *testing.T) {
	cfg := mcConfig()
	full := montecarlo.ChannelLevel(cfg, montecarlo.MarginAware)
	var merged []float64
	for _, p := range seqPayloads(t, mcUnits()) {
		vals, err := DecodeMargins(p)
		if err != nil {
			t.Fatal(err)
		}
		merged = append(merged, vals...)
	}
	if len(merged) != len(full.Margins) {
		t.Fatalf("merged %d margins, want %d", len(merged), len(full.Margins))
	}
	for i := range merged {
		if merged[i] != full.Margins[i] {
			t.Fatalf("margin %d diverges: %v != %v", i, merged[i], full.Margins[i])
		}
	}
}

func newTestWorker(t *testing.T, cacheDir string) (*httptest.Server, *obs.Registry) {
	t.Helper()
	var cache *runcache.Cache
	if cacheDir != "" {
		var err error
		cache, err = runcache.Open(cacheDir)
		if err != nil {
			t.Fatal(err)
		}
	}
	reg := obs.NewRegistry()
	srv := httptest.NewServer(NewWorker(testVersion, cache, reg).Handler())
	t.Cleanup(srv.Close)
	return srv, reg
}

func TestWorkerHandler(t *testing.T) {
	dir := t.TempDir()
	srv, reg := newTestWorker(t, dir)

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp.Status, err)
	}
	resp.Body.Close()

	u := mcUnits()[0]
	post := func(body []byte) (*http.Response, batchResponse, string) {
		t.Helper()
		resp, err := http.Post(srv.URL+batchPath, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		var out batchResponse
		_ = json.Unmarshal(raw, &out)
		return resp, out, string(raw)
	}
	batch := func(units ...Unit) []byte {
		wire, _ := json.Marshal(batchRequest{Key: units[0].Key, Units: units})
		return wire
	}
	wire := batch(u)

	resp, out, _ := post(wire)
	if resp.StatusCode != http.StatusOK || out.Key != u.Key || len(out.Results) != 1 ||
		out.Results[0].Key != u.Key || !out.Results[0].Computed {
		t.Fatalf("cold unit: status %s reply %+v", resp.Status, out)
	}
	want := seqPayloads(t, []Unit{u})[0]
	if !bytes.Equal(out.Results[0].Payload, want) {
		t.Error("worker payload diverges from local execution")
	}

	// Same unit again: served from the shared cache, not recomputed.
	resp, out, _ = post(wire)
	if resp.StatusCode != http.StatusOK || len(out.Results) != 1 || out.Results[0].Computed {
		t.Fatalf("warm unit recomputed (status %s)", resp.Status)
	}
	if !bytes.Equal(out.Results[0].Payload, want) {
		t.Error("cached payload diverges")
	}
	snap := reg.Snapshot()
	if snap.Counters["shard/worker/computed"] != 1 || snap.Counters["shard/worker/cache_hits"] != 1 {
		t.Errorf("worker counters %v", snap.Counters)
	}

	skewed := u
	skewed.Version = "other-build"
	if resp, _, _ := post(batch(skewed)); resp.StatusCode != http.StatusConflict {
		t.Errorf("version skew answered %s, want 409", resp.Status)
	}
	if resp, _, _ := post([]byte("{not json")); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage body answered %s, want 400", resp.Status)
	}
	// A valid batch behind maxBatchBytes of leading whitespace is over the
	// body limit.
	oversized := append(bytes.Repeat([]byte(" "), maxBatchBytes), wire...)
	if resp, _, msg := post(oversized); resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(msg, "too large") {
		t.Errorf("oversized batch answered %s %q, want 413", resp.Status, msg)
	}
	if resp, _, _ := post([]byte(`{"units": []}`)); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch answered %s, want 400", resp.Status)
	}
	unnamed, _ := json.Marshal(batchRequest{Units: []Unit{u}})
	if resp, _, _ := post(unnamed); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("batch without a key answered %s, want 400", resp.Status)
	}

	// Refused units answer 400 naming the unit — retrying cannot help —
	// and neither is computed.
	misKeyed := mcUnits()[1]
	misKeyed.Key = mcUnits()[2].Key
	bodyless := NewNodeUnit(testVersion, node.Config{H: node.Hierarchy1()}, workload.ByName("hpcg"))
	bodyless.Node = nil
	fastless := NewNodeUnit(testVersion, node.Config{
		H:           node.Hierarchy1(),
		Replication: memctrl.ReplicationHeteroDMR,
		Spec:        dramspec.TableII(dramspec.SettingSpec, dramspec.DDR4_3200, 800),
		Seed:        1,
	}, workload.ByName("hpcg"))
	streamless := workload.ByName("hpcg")
	streamless.Streams = 0
	badProfile := NewNodeUnit(testVersion, node.Config{
		H:    node.Hierarchy1(),
		Spec: dramspec.TableII(dramspec.SettingSpec, dramspec.DDR4_3200, 800),
		Seed: 1,
	}, streamless)
	badScale := NewNodeUnit(testVersion, node.Config{
		H:          node.Hierarchy1(),
		Spec:       dramspec.TableII(dramspec.SettingSpec, dramspec.DDR4_3200, 800),
		Seed:       1,
		ScaleShift: 11, // leaves each 16-way L2 8 blocks
	}, workload.ByName("hpcg"))
	zeroRate := NewNodeUnit(testVersion, node.Config{H: node.Hierarchy1(), Seed: 1}, workload.ByName("hpcg"))
	badReplication := NewNodeUnit(testVersion, node.Config{
		H:           node.Hierarchy1(),
		Replication: memctrl.Replication(9),
		Spec:        dramspec.TableII(dramspec.SettingSpec, dramspec.DDR4_3200, 800),
		Seed:        1,
	}, workload.ByName("hpcg"))
	for name, bad := range map[string]Unit{
		"mis-keyed": misKeyed, "bodyless": bodyless, "fast-less": fastless, "bad-profile": badProfile,
		"bad-scale": badScale, "zero-rate": zeroRate, "bad-replication": badReplication,
	} {
		resp, _, msg := post(batch(u, bad))
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg, bad.Key) {
			t.Errorf("%s unit answered %s %q, want 400 naming %s", name, resp.Status, msg, bad.Key)
		}
	}
	snap = reg.Snapshot()
	if snap.Counters["shard/worker/computed"] != 1 {
		t.Errorf("refused units were computed: %v", snap.Counters)
	}
}

// TestNewPoolRequiresWorkers: a pool without workers would return
// unfilled slots from Run, so NewPool refuses to build one.
func TestNewPoolRequiresWorkers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewPool without workers did not panic")
		}
	}()
	NewPool(PoolOptions{})
}

// TestPoolInFlightBoundsConcurrentRuns: InFlight bounds a worker's
// outstanding batches across every concurrent Run of the pool, not per
// Run — three Runs at InFlight 1 never put two requests on the worker.
func TestPoolInFlightBoundsConcurrentRuns(t *testing.T) {
	units := mcUnits()[:4]
	want := seqPayloads(t, units)
	inner := NewWorker(testVersion, nil, nil).Handler()
	var cur, peak atomic.Int64
	stub := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		n := cur.Add(1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		time.Sleep(20 * time.Millisecond) // hold the request so the Runs overlap
		inner.ServeHTTP(rw, r)
		cur.Add(-1)
	}))
	defer stub.Close()
	p := NewPool(PoolOptions{Workers: []string{stub.URL}, InFlight: 1})
	outs := make([][]UnitResult, 3)
	var wg sync.WaitGroup
	for i := range outs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i] = p.Run(units)
		}(i)
	}
	wg.Wait()
	for _, out := range outs {
		checkMerged(t, units, out, want)
	}
	if got := peak.Load(); got > 1 {
		t.Errorf("worker saw %d concurrent requests from three Runs at InFlight 1, want at most 1", got)
	}
}

// TestPoolLocalFallbackHoldsASlot: a local execution draws a slot token
// like a dispatch, so with the pool's only token held elsewhere a Run on
// a cancelled context executes nothing until the token comes back.
func TestPoolLocalFallbackHoldsASlot(t *testing.T) {
	units := mcUnits()
	want := seqPayloads(t, units)
	srv, _ := newTestWorker(t, "")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reg := obs.NewRegistry()
	p := NewPool(PoolOptions{Workers: []string{srv.URL}, InFlight: 1, BaseContext: ctx, Reg: reg})
	token := <-p.slots
	done := make(chan []UnitResult, 1)
	go func() { done <- p.Run(units) }()
	time.Sleep(100 * time.Millisecond)
	if n := reg.Snapshot().Counters["shard/local"]; n != 0 {
		t.Fatalf("%d units executed locally while every slot was held", n)
	}
	p.slots <- token
	checkMerged(t, units, <-done, want)
	if n := reg.Snapshot().Counters["shard/local"]; n != uint64(len(units)) {
		t.Errorf("local executions = %d, want %d", n, len(units))
	}
}

// TestPoolOrderedMergeByteIdentical: two workers over a shared cache
// produce the sequential byte sequence in input order, and a warm rerun
// is all cache hits with zero dispatches and zero computation.
func TestPoolOrderedMergeByteIdentical(t *testing.T) {
	units := mcUnits()
	want := seqPayloads(t, units)
	dir := t.TempDir()
	w1, _ := newTestWorker(t, dir)
	w2, _ := newTestWorker(t, dir)
	cache, err := runcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	p := NewPool(PoolOptions{Workers: []string{w1.URL, w2.URL}, Cache: cache, Reg: reg})
	checkMerged(t, units, p.Run(units), want)
	snap := reg.Snapshot()
	if snap.Counters["shard/completed"] != uint64(len(units)) {
		t.Errorf("completed %d, want %d", snap.Counters["shard/completed"], len(units))
	}
	if snap.Counters["shard/computed"] != uint64(len(units)) {
		t.Errorf("computed %d, want %d", snap.Counters["shard/computed"], len(units))
	}

	reg2 := obs.NewRegistry()
	p2 := NewPool(PoolOptions{Workers: []string{w1.URL, w2.URL}, Cache: cache, Reg: reg2})
	checkMerged(t, units, p2.Run(units), want)
	snap2 := reg2.Snapshot()
	if snap2.Counters["shard/cache_hits"] != uint64(len(units)) {
		t.Errorf("warm rerun cache hits %d, want %d", snap2.Counters["shard/cache_hits"], len(units))
	}
	if snap2.Counters["shard/dispatched"] != 0 || snap2.Counters["shard/computed"] != 0 {
		t.Errorf("warm rerun dispatched %d computed %d, want 0/0",
			snap2.Counters["shard/dispatched"], snap2.Counters["shard/computed"])
	}
}

// flakyProxy fronts a healthy worker and starts failing every request
// after `healthy` successes — a worker death mid-suite as the
// coordinator observes it (the process answering 503s; a TCP-level kill
// surfaces as a transport error and takes the same failure path).
type flakyProxy struct {
	inner   http.Handler
	served  atomic.Int64
	healthy int64
}

func (f *flakyProxy) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	if f.served.Add(1) > f.healthy {
		http.Error(rw, "worker going down", http.StatusServiceUnavailable)
		return
	}
	f.inner.ServeHTTP(rw, r)
}

// heldUntil fronts a worker and holds every request until ready reports
// true (polled), or until a safety deadline so a broken pool fails the
// test's assertions instead of hanging it.
type heldUntil struct {
	inner http.Handler
	ready func() bool
}

func (h *heldUntil) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	deadline := time.Now().Add(10 * time.Second)
	for !h.ready() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	h.inner.ServeHTTP(rw, r)
}

// TestPoolWorkerDeathMidRun kills one of two workers after two served
// units: the pool must open the dying worker's breaker after DeadAfter
// consecutive failures, retry each batch that failed there on whichever
// worker frees a slot next, and still merge the exact sequential bytes.
// The healthy worker is held until the coordinator has declared the
// death, so it cannot finish every batch before the dying one has failed
// DeadAfter times in a row.
func TestPoolWorkerDeathMidRun(t *testing.T) {
	units := mcUnits()
	want := seqPayloads(t, units)
	dir := t.TempDir()

	cache, err := runcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	deaths := reg.Counter("shard/worker_deaths")
	healthyCache, err := runcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	healthy := httptest.NewServer(&heldUntil{
		inner: NewWorker(testVersion, healthyCache, obs.NewRegistry()).Handler(),
		ready: func() bool { return deaths.Value() >= 1 },
	})
	defer healthy.Close()
	dyingReg := obs.NewRegistry()
	dying := httptest.NewServer(&flakyProxy{inner: NewWorker(testVersion, nil, dyingReg).Handler(), healthy: 2})
	defer dying.Close()

	p := NewPool(PoolOptions{
		Workers:   []string{dying.URL, healthy.URL},
		Cache:     cache,
		Reg:       reg,
		Backoff:   backoff.Policy{Budget: 4},
		DeadAfter: 2,
	})
	checkMerged(t, units, p.Run(units), want)

	snap := reg.Snapshot()
	if snap.Counters["shard/worker_deaths"] != 1 {
		t.Errorf("worker_deaths %d, want 1", snap.Counters["shard/worker_deaths"])
	}
	if snap.Counters["shard/retries"] == 0 {
		t.Error("no retries counted despite a dying worker")
	}
	// A failed dispatch is one retry, and requeued counts the retries
	// that waited out their backoff before drawing another slot. A retry
	// whose budget was spent runs locally without waiting, so requeued
	// cannot exceed retries; with a worker dying mid-run, some retry
	// must have waited.
	if snap.Counters["shard/requeued"] > snap.Counters["shard/retries"] {
		t.Errorf("requeued %d exceeds retries %d",
			snap.Counters["shard/requeued"], snap.Counters["shard/retries"])
	}
	if snap.Counters["shard/requeued"] == 0 {
		t.Error("no retry waited out its backoff despite a worker dying mid-run")
	}
}

// TestPoolAllWorkersDead: with the whole fleet failing, every unit falls
// back to local execution and the run still completes with sequential
// bytes.
func TestPoolAllWorkersDead(t *testing.T) {
	units := mcUnits()[:4]
	want := seqPayloads(t, units)
	down := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
		http.Error(rw, "down", http.StatusServiceUnavailable)
	}))
	defer down.Close()

	reg := obs.NewRegistry()
	p := NewPool(PoolOptions{Workers: []string{down.URL}, Reg: reg, Backoff: backoff.Policy{Budget: 1}, DeadAfter: 1})
	checkMerged(t, units, p.Run(units), want)
	snap := reg.Snapshot()
	if snap.Counters["shard/local"] != uint64(len(units)) {
		t.Errorf("local %d, want %d", snap.Counters["shard/local"], len(units))
	}
	if snap.Counters["shard/worker_deaths"] != 1 {
		t.Errorf("worker_deaths %d, want 1", snap.Counters["shard/worker_deaths"])
	}
}

// TestPoolFallbacksCountLocalUnits: Fallbacks tells a run that never
// reached its fleet apart from one that did, with or without a registry.
// A pool whose only worker refuses connections runs every unit locally;
// a pool over a live worker runs none.
func TestPoolFallbacksCountLocalUnits(t *testing.T) {
	units := mcUnits()[:4]
	want := seqPayloads(t, units)
	refused := httptest.NewServer(http.NotFoundHandler())
	refused.Close() // its port now refuses connections

	p := NewPool(PoolOptions{Workers: []string{refused.URL}, Backoff: backoff.Policy{Budget: 1}, DeadAfter: 1})
	checkMerged(t, units, p.Run(units), want)
	if local, n := p.Fallbacks(); local != uint64(len(units)) || n != uint64(len(units)) {
		t.Errorf("refused fleet: Fallbacks() = %d of %d, want %d of %d", local, n, len(units), len(units))
	}

	live, _ := newTestWorker(t, "")
	reg := obs.NewRegistry()
	p = NewPool(PoolOptions{Workers: []string{live.URL}, Reg: reg})
	checkMerged(t, units, p.Run(units), want)
	if local, n := p.Fallbacks(); local != 0 || n != uint64(len(units)) {
		t.Errorf("live fleet: Fallbacks() = %d of %d, want 0 of %d", local, n, len(units))
	}
	if got := reg.Snapshot().Counters["shard/units"]; got != uint64(len(units)) {
		t.Errorf("live fleet: shard/units = %d, want %d", got, len(units))
	}
}

// TestPoolStragglerTimeout: a worker that accepts units and never
// answers must not stall the suite — the dispatch times out, the unit is
// retried elsewhere (or locally), and the merge still matches.
func TestPoolStragglerTimeout(t *testing.T) {
	units := mcUnits()[:4]
	want := seqPayloads(t, units)
	dir := t.TempDir()
	healthy, _ := newTestWorker(t, dir)
	release := make(chan struct{})
	stalled := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		// Hold the unit until the test ends (not until request-context
		// cancellation, which would leave Close waiting on the handler).
		<-release
	}))
	defer stalled.Close()
	defer close(release)

	cache, err := runcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	p := NewPool(PoolOptions{
		Workers:   []string{stalled.URL, healthy.URL},
		Cache:     cache,
		Reg:       reg,
		Timeout:   150 * time.Millisecond,
		Backoff:   backoff.Policy{Budget: 3},
		DeadAfter: 2,
	})
	done := make(chan []UnitResult, 1)
	go func() { done <- p.Run(units) }()
	select {
	case out := <-done:
		checkMerged(t, units, out, want)
	case <-time.After(30 * time.Second):
		t.Fatal("straggler stalled the whole run")
	}
	snap := reg.Snapshot()
	if snap.Counters["shard/timeouts"] == 0 {
		t.Error("no timeouts counted despite a stalled worker")
	}
}

// TestPoolRejectsWrongKeyAnswer: a worker answering with a different key
// than asked — for the batch or for a unit in it — must be treated as a
// failure, never committed.
func TestPoolRejectsWrongKeyAnswer(t *testing.T) {
	units := mcUnits()[:2]
	want := seqPayloads(t, units)
	wrong := strings.Repeat("ab", 32)
	for name, batchKey := range map[string]func(asked string) string{
		"batch": func(string) string { return wrong },
		"unit":  func(asked string) string { return asked },
	} {
		liar := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			var b batchRequest
			_ = json.NewDecoder(r.Body).Decode(&b)
			rw.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(rw).Encode(batchResponse{Key: batchKey(b.Key), Results: []unitResponse{
				{Key: wrong, UnitResult: UnitResult{Computed: true, Payload: []byte("junk")}},
			}})
		}))
		defer liar.Close()

		reg := obs.NewRegistry()
		p := NewPool(PoolOptions{Workers: []string{liar.URL}, Reg: reg, Backoff: backoff.Policy{Budget: 1}, DeadAfter: 1})
		checkMerged(t, units, p.Run(units), want)
		if snap := reg.Snapshot(); snap.Counters["shard/retries"] == 0 {
			t.Errorf("mis-keyed %s answers were not counted as failures", name)
		}
	}
}

// TestPoolWorkerRefusalIsTerminal: a worker's 400 says the batch itself
// is malformed, so the pool neither retries nor requeues it. A batch
// that runs locally still merges correctly; one that cannot run locally
// either panics with the worker's refusal in the message. The refusing
// stub is called exactly once either way.
func TestPoolWorkerRefusalIsTerminal(t *testing.T) {
	const refusal = "unit K refused: profile check failed"
	var calls atomic.Int64
	stub := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
		calls.Add(1)
		http.Error(rw, refusal, http.StatusBadRequest)
	}))
	defer stub.Close()
	newPool := func(reg *obs.Registry) *Pool {
		return NewPool(PoolOptions{Workers: []string{stub.URL}, InFlight: 1, Backoff: backoff.Policy{Budget: 3}, Reg: reg})
	}

	units := mcUnits()[:1]
	want := seqPayloads(t, units)
	reg := obs.NewRegistry()
	checkMerged(t, units, newPool(reg).Run(units), want)
	if n := calls.Load(); n != 1 {
		t.Errorf("refusing worker called %d times, want 1", n)
	}
	snap := reg.Snapshot()
	if snap.Counters["shard/retries"] != 0 || snap.Counters["shard/requeued"] != 0 || snap.Counters["shard/local"] != 1 {
		t.Errorf("refused batch retried or not run locally: %v", snap.Counters)
	}

	// A unit the coordinator cannot execute either: runBatch is driven
	// on this goroutine so its panic can be recovered.
	calls.Store(0)
	streamless := workload.ByName("hpcg")
	streamless.Streams = 0
	bad := []Unit{NewNodeUnit(testVersion, node.Config{
		H:    node.Hierarchy1(),
		Spec: dramspec.TableII(dramspec.SettingSpec, dramspec.DDR4_3200, 800),
		Seed: 1,
	}, streamless)}
	reg = obs.NewRegistry()
	p := newPool(reg)
	func() {
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, refusal) || !strings.Contains(msg, bad[0].Key) {
				t.Errorf("panic %q does not name the worker's refusal and the batch", msg)
			}
		}()
		p.runBatch(context.Background(), bad)
	}()
	if n := calls.Load(); n != 1 {
		t.Errorf("refusing worker called %d times for the bad batch, want 1", n)
	}
	if snap := reg.Snapshot(); snap.Counters["shard/retries"] != 0 || snap.Counters["shard/requeued"] != 0 {
		t.Errorf("refused batch was retried: %v", snap.Counters)
	}
	if len(p.slots) != cap(p.slots) {
		t.Errorf("%d of %d slot tokens returned after the panic", len(p.slots), cap(p.slots))
	}
}
