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
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/backoff"
	"repro/internal/dramspec"
	"repro/internal/memctrl"
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
		res, _, err := Execute([]Unit{u}, nil, 1, nil)
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
	k, err := decoded.runKey()
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
	if _, err := tampered.runKey(); err == nil {
		t.Error("tampered material passed key verification")
	}

	withWorkers := decoded
	withWorkers.MC = &MCMaterial{}
	*withWorkers.MC = *decoded.MC
	withWorkers.MC.Cfg.Workers = 8
	if _, err := withWorkers.runKey(); err == nil {
		t.Error("unit carrying a Workers fan-out width passed verification")
	}

	if _, err := (Unit{Type: "bogus"}).runKey(); err == nil {
		t.Error("unknown unit type passed verification")
	}

	badLevel := decoded
	badLevel.MC = &MCMaterial{}
	*badLevel.MC = *decoded.MC
	badLevel.MC.Level = "rack"
	badLevel.Key = runcache.KeyOf(testVersion, *badLevel.MC).String()
	if _, err := badLevel.runKey(); err == nil {
		t.Error("unknown MC level passed verification")
	}
}

// TestUnitWireAndKeyPinned pins the wire JSON, key included, of one
// checked node unit and one Monte-Carlo unit to testdata/units.golden.
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
		if _, err := decoded.runKey(); err != nil {
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
	for name, bad := range map[string]Unit{"mis-keyed": misKeyed, "bodyless": bodyless, "fast-less": fastless, "bad-profile": badProfile} {
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

func TestPoolNoWorkersRunsLocally(t *testing.T) {
	units := mcUnits()
	want := seqPayloads(t, units)
	reg := obs.NewRegistry()
	p := NewPool(PoolOptions{Reg: reg})
	checkMerged(t, units, p.Run(units), want)
	snap := reg.Snapshot()
	if snap.Counters["shard/local"] != uint64(len(units)) {
		t.Errorf("local count %d, want %d", snap.Counters["shard/local"], len(units))
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
// units: the pool must mark it dead after DeadAfter consecutive
// failures, requeue its claimed units, and still merge the exact
// sequential bytes. The healthy worker is held until the coordinator has
// declared the death, so the healthy worker can never drain the queue
// before the dying one has failed DeadAfter times in a row.
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
	// Every counted retry put its unit back on the queue (local
	// fallbacks and dead-worker slot commits account for the rest), and
	// the dying worker's in-flight units were in fact requeued.
	if snap.Counters["shard/requeued"] > snap.Counters["shard/retries"] {
		t.Errorf("requeued %d exceeds retries %d",
			snap.Counters["shard/requeued"], snap.Counters["shard/retries"])
	}
	if snap.Counters["shard/requeued"] == 0 {
		t.Error("no units requeued despite a worker dying mid-run")
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
	p := newPool(obs.NewRegistry())
	st := &runState{
		units:    bad,
		batches:  [][]int{{0}},
		out:      make([]UnitResult, 1),
		attempts: make([]int, 1),
		tasks:    make(chan int, 1),
		done:     make(chan struct{}),
	}
	st.left.Store(1)
	func() {
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, refusal) || !strings.Contains(msg, bad[0].Key) {
				t.Errorf("panic %q does not name the worker's refusal and the batch", msg)
			}
		}()
		p.runBatch(context.Background(), p.workers[0], 0, st)
	}()
	if n := calls.Load(); n != 1 {
		t.Errorf("refusing worker called %d times for the bad batch, want 1", n)
	}
	if len(st.tasks) != 0 {
		t.Error("refused batch was requeued")
	}
}
