package shard

import (
	"bytes"
	"encoding/json"
	"net/http"
	"reflect"
	"testing"

	"repro/internal/dramspec"
	"repro/internal/memctrl"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/runcache"
	"repro/internal/workload"
)

// suiteConfigs resolves the nine memory designs the suite's node-level
// figures run (spec, the three margin settings, FMR, and Hetero-DMR and
// Hetero-DMR+FMR at 0.8 and 0.6 GT/s of margin) at quick length, the way
// internal/experiments resolves them.
func suiteConfigs(h node.Hierarchy, seed uint64) []node.Config {
	designs := []struct {
		repl    memctrl.Replication
		setting dramspec.Setting
		margin  dramspec.DataRate
	}{
		{memctrl.ReplicationNone, dramspec.SettingSpec, 0},
		{memctrl.ReplicationNone, dramspec.SettingLatencyMargin, 800},
		{memctrl.ReplicationNone, dramspec.SettingFrequencyMargin, 800},
		{memctrl.ReplicationNone, dramspec.SettingFreqLatMargin, 800},
		{memctrl.ReplicationFMR, dramspec.SettingSpec, 0},
		{memctrl.ReplicationHeteroDMR, dramspec.SettingSpec, 800},
		{memctrl.ReplicationHeteroDMR, dramspec.SettingSpec, 600},
		{memctrl.ReplicationHeteroDMRFMR, dramspec.SettingSpec, 800},
		{memctrl.ReplicationHeteroDMRFMR, dramspec.SettingSpec, 600},
	}
	cfgs := make([]node.Config, len(designs))
	for i, d := range designs {
		cfg := node.Config{
			H:                   h,
			Replication:         d.repl,
			Spec:                dramspec.TableII(d.setting, dramspec.DDR4_3200, d.margin),
			Seed:                seed,
			InstructionsPerCore: 40_000,
			WarmupInstructions:  15_000,
		}
		if d.repl.Fast() {
			fast := dramspec.TableII(dramspec.SettingFreqLatMargin, dramspec.DDR4_3200, d.margin)
			cfg.Fast = &fast
		}
		cfgs[i] = cfg
	}
	return cfgs
}

// nodeCells builds one node unit per config and, as the reference, the
// per-cell payload node.Run gives for it.
func nodeCells(t *testing.T, cfgs []node.Config, prof workload.Profile) ([]Unit, [][]byte) {
	t.Helper()
	units := make([]Unit, len(cfgs))
	want := make([][]byte, len(cfgs))
	for i, cfg := range cfgs {
		units[i] = NewNodeUnit(testVersion, cfg, prof)
		p, err := EncodeNodeResult(node.MustRun(cfg, prof))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = p
	}
	return units, want
}

// postBatch sends units as one batch and returns the worker's results.
func postBatch(t *testing.T, url string, units []Unit) []unitResponse {
	t.Helper()
	body, err := json.Marshal(batchRequest{Key: units[0].Key, Units: units})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+batchPath, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch answered %s", resp.Status)
	}
	var out batchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Key != units[0].Key || len(out.Results) != len(units) {
		t.Fatalf("batch %s of %d units answered as %s with %d results", units[0].Key, len(units), out.Key, len(out.Results))
	}
	return out.Results
}

// checkBatch asserts the results answer units in order with the wanted
// payloads, all computed or all cache hits.
func checkBatch(t *testing.T, label string, units []Unit, got []unitResponse, want [][]byte, computed bool) {
	t.Helper()
	for i, r := range got {
		if r.Key != units[i].Key {
			t.Errorf("%s: slot %d answered key %s, want %s", label, i, r.Key, units[i].Key)
		}
		if r.Computed != computed {
			t.Errorf("%s: slot %d computed %v, want %v", label, i, r.Computed, computed)
		}
		if !bytes.Equal(r.Payload, want[i]) {
			t.Errorf("%s: slot %d payload differs from the per-cell node.Run", label, i)
		}
	}
}

// TestWorkerBatchRecordsOncePerFrontEnd: a batch of the nine suite
// designs of one (hierarchy, benchmark, seed) costs the worker exactly
// one recording, and every payload is byte-equal to the cell's own
// node.Run. A batch interleaving two identities records twice, and a
// batch the shared cache already holds records nothing.
func TestWorkerBatchRecordsOncePerFrontEnd(t *testing.T) {
	srv, reg := newTestWorker(t, t.TempDir())
	recordings := func() uint64 { return reg.Snapshot().Counters["shard/worker/recordings"] }

	suite, suiteWant := nodeCells(t, suiteConfigs(node.Hierarchy1(), 1), workload.ByName("hpcg"))
	checkBatch(t, "suite", suite, postBatch(t, srv.URL, suite), suiteWant, true)
	if got := recordings(); got != 1 {
		t.Errorf("nine designs of one front end recorded %d times, want 1", got)
	}

	a, aWant := nodeCells(t, suiteConfigs(node.Hierarchy1(), 2)[:3], workload.ByName("hpcg"))
	b, bWant := nodeCells(t, suiteConfigs(node.Hierarchy1(), 1)[:3], workload.ByName("lulesh"))
	var mixed []Unit
	var mixedWant [][]byte
	for i := range a {
		mixed = append(mixed, a[i], b[i])
		mixedWant = append(mixedWant, aWant[i], bWant[i])
	}
	checkBatch(t, "interleaved", mixed, postBatch(t, srv.URL, mixed), mixedWant, true)
	if got := recordings(); got != 3 {
		t.Errorf("interleaved batch of two front ends recorded %d times, want 2", got-1)
	}

	checkBatch(t, "suite again", suite, postBatch(t, srv.URL, suite), suiteWant, false)
	checkBatch(t, "interleaved again", mixed, postBatch(t, srv.URL, mixed), mixedWant, false)
	if got := recordings(); got != 3 {
		t.Errorf("cached batches recorded %d more times, want 0", got-3)
	}
}

// TestPoolBatchesByFrontEnd: a pool given two front-end groups of three
// designs each plus two Monte-Carlo ranges, interleaved, sends exactly
// four batches — one per group, one per range — to its two workers, and
// merges the per-cell sequential bytes in input order.
func TestPoolBatchesByFrontEnd(t *testing.T) {
	g1, g1Want := nodeCells(t, suiteConfigs(node.Hierarchy1(), 1)[4:7], workload.ByName("graph500"))
	g2, g2Want := nodeCells(t, suiteConfigs(node.Hierarchy1(), 3)[4:7], workload.ByName("graph500"))
	mc := mcUnits()[:2]
	mcWant := seqPayloads(t, mc)
	units := []Unit{g1[0], mc[0], g2[0], g1[1], g2[1], mc[1], g1[2], g2[2]}
	want := [][]byte{g1Want[0], mcWant[0], g2Want[0], g1Want[1], g2Want[1], mcWant[1], g1Want[2], g2Want[2]}

	dir := t.TempDir()
	w1, r1 := newTestWorker(t, dir)
	w2, r2 := newTestWorker(t, dir)
	cache, err := runcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	p := NewPool(PoolOptions{Workers: []string{w1.URL, w2.URL}, Cache: cache, Reg: reg})
	checkMerged(t, units, p.Run(units), want)
	c := reg.Snapshot().Counters
	if c["shard/dispatched"] != 4 {
		t.Errorf("dispatched %d batches, want 4", c["shard/dispatched"])
	}
	if c["shard/completed"] != uint64(len(units)) || c["shard/computed"] != uint64(len(units)) {
		t.Errorf("completed %d computed %d, want %d each", c["shard/completed"], c["shard/computed"], len(units))
	}
	rec := r1.Snapshot().Counters["shard/worker/recordings"] + r2.Snapshot().Counters["shard/worker/recordings"]
	if rec != 2 {
		t.Errorf("fleet recorded %d front ends, want 2", rec)
	}
}

// TestCheckedNodePayload pins the checked payload: it starts with the
// bytes EncodeNodeResult gives for the cell's result, so DecodeNodeResult
// reads it, then carries the metric snapshot and trace the run recorded
// into a registry of its own. An unchecked payload fails
// DecodeCheckedNode.
func TestCheckedNodePayload(t *testing.T) {
	prof := workload.ByName("graph500")
	cfg := suiteConfigs(node.Hierarchy1(), 1)[5] // Hetero-DMR: mode and frequency switches
	cfg.Check = true
	out, _, err := Execute([]Unit{NewNodeUnit(testVersion, cfg, prof)}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	payload := out[0].Payload

	reg := obs.NewRegistry()
	direct := cfg
	direct.Obs = reg
	want := node.MustRun(direct, prof)
	plain, err := EncodeNodeResult(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(payload, plain) || len(payload) == len(plain) {
		t.Error("checked payload does not extend the unchecked encoding of its result")
	}
	if res, err := DecodeNodeResult(payload); err != nil || !reflect.DeepEqual(res, want) {
		t.Errorf("DecodeNodeResult of a checked payload: %v", err)
	}
	res, ob, err := DecodeCheckedNode(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, want) {
		t.Error("checked payload's result differs from a direct run")
	}
	if !reflect.DeepEqual(ob, Observed{Metrics: reg.Snapshot(), Events: reg.Trace()}) || len(ob.Events) == 0 {
		t.Errorf("checked payload carries %d events and %d metrics, want the direct run's %d and %d",
			len(ob.Events), len(ob.Metrics.Names), len(reg.Trace()), len(reg.Snapshot().Names))
	}
	if _, _, err := DecodeCheckedNode(plain); err == nil {
		t.Error("DecodeCheckedNode accepted a payload without observations")
	}
}
