package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/dramspec"
	"repro/internal/memctrl"
	"repro/internal/montecarlo"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/runcache"
	"repro/internal/shard"
	"repro/internal/workload"
)

// failingCell is a cell whose profile fails workload.Profile.Validate,
// so every executor that runs it fails.
func failingCell(seed uint64) cell {
	prof := workload.ByName("hpcg")
	prof.Name = "hpcg-streamless"
	prof.Streams = 0
	return cell{h: node.Hierarchy1(), d: design{repl: memctrl.ReplicationNone, setting: dramspec.SettingSpec},
		prof: prof, seed: seed}
}

// TestRunCachePanicDoesNotPoison: a warm whose executor fails — here
// because one cell's profile fails workload.Profile.Validate — panics
// naming that cell's unit and adds no cell of its plan to the run table,
// so a failed simulation can never pin a zero Result into the suite's
// averages. A later warm of the valid cells computes them.
func TestRunCachePanicDoesNotPoison(t *testing.T) {
	s := New(Options{Seed: 1, Quick: true, Workers: 1})
	base := design{repl: memctrl.ReplicationNone, setting: dramspec.SettingSpec}
	bad := failingCell(1)
	good := []cell{
		{h: node.Hierarchy1(), d: base, prof: workload.ByName("hpcg"), seed: 1},
		{h: node.Hierarchy2(), d: base, prof: workload.ByName("hpcg"), seed: 1},
	}
	badKey := shard.NewNodeUnit(s.opt.CacheVersion, s.nodeConfig(bad), bad.prof).Key

	func() {
		defer func() {
			p := recover()
			if p == nil {
				t.Fatal("a warm whose executor failed did not panic")
			}
			if msg := fmt.Sprint(p); !strings.Contains(msg, badKey) {
				t.Errorf("panic %q does not name the failing unit %s", msg, badKey)
			}
		}()
		s.warm([]cell{good[0], bad})
	}()
	if n, c := s.CachedRuns(), s.ComputedRuns(); n != 0 || c != 0 {
		t.Fatalf("failed warm left %d cells (%d computed) in the table", n, c)
	}

	s.warm(good)
	if n, c := s.CachedRuns(), s.ComputedRuns(); n != len(good) || c != len(good) {
		t.Errorf("warm of valid cells after a failure: %d cells, %d computed, want %d each", n, c, len(good))
	}
	for _, c := range good {
		if res := s.runSeed(c.h, c.d, c.prof, c.seed); res.ExecPS <= 0 {
			t.Errorf("%s/%s: zero result in the table", c.h.Name, c.prof.Name)
		}
	}
}

// TestRunCachePanicConcurrentRetry races warms of a valid cell against a
// warm whose plan also holds a failing cell: the failing warm panics,
// every other caller is served the valid cell's result, nobody sees a
// zero Result, and the run table ends holding the valid cell alone. A
// retry of the failing cell fails again instead of being served a zero
// Result.
func TestRunCachePanicConcurrentRetry(t *testing.T) {
	s := New(Options{Seed: 2, Quick: true, Workers: 1})
	good := cell{h: node.Hierarchy2(), d: design{repl: memctrl.ReplicationNone, setting: dramspec.SettingSpec},
		prof: workload.ByName("hpcg"), seed: 2}
	bad := failingCell(2)
	results := make([]int64, 4)
	panics := make([]any, len(results))
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			defer func() { panics[slot] = recover() }()
			plan := []cell{good}
			if slot == 0 {
				plan = append(plan, bad) // the unlucky caller whose warm fails
			}
			s.warm(plan)
			results[slot] = s.runSeed(good.h, good.d, good.prof, good.seed).ExecPS
		}(i)
	}
	wg.Wait()
	if panics[0] == nil {
		t.Fatal("a warm whose executor failed did not panic")
	}
	for slot := 1; slot < len(results); slot++ {
		if panics[slot] != nil {
			t.Fatalf("caller %d of the valid cell panicked: %v", slot, panics[slot])
		}
		if results[slot] <= 0 || results[slot] != results[1] {
			t.Fatalf("callers served ExecPS %v, want one positive value for every caller but the failing one", results[1:])
		}
	}
	if n, c := s.CachedRuns(), s.ComputedRuns(); n != 1 || c != 1 {
		t.Fatalf("run table holds %d cells (%d computed) after the race, want the valid cell alone", n, c)
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Error("retry of the failing cell did not panic")
			}
		}()
		s.warm([]cell{bad})
	}()
	if n := s.CachedRuns(); n != 1 {
		t.Errorf("retry of the failing cell left %d cells in the run table, want 1", n)
	}
}

// cellKey is the persistent-cache key a suite with CacheVersion
// "test-v1" stores c under.
func cellKey(s *Suite, c cell) runcache.Key {
	return runcache.KeyOf("test-v1", shard.NodeMaterial{Cfg: s.nodeConfig(c), Prof: c.prof})
}

// TestCheckedCellsUseTheStore: checked cells are keyed apart from
// unchecked ones and replay from the store like any others. A checked
// suite over a store only an unchecked suite filled computes every cell;
// a second checked suite then computes nothing and renders the same
// bytes; and a violation planted in a stored checked payload is reported
// by the replaying suite.
func TestCheckedCellsUseTheStore(t *testing.T) {
	dir := t.TempDir()
	run := func(check bool) (string, *Suite) {
		c, err := runcache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		s := New(Options{Seed: 5, Quick: true, Seeds: 1, Workers: 2, Check: check,
			Cache: c, CacheVersion: "test-v1"})
		return entry(t, "fig14").Run(s).String(), s
	}
	unchecked, _ := run(false)

	cold, s1 := run(true)
	if cold != unchecked {
		t.Fatal("checked run rendered different bytes than the unchecked run")
	}
	if s1.ComputedRuns() == 0 || s1.ComputedRuns() != s1.CachedRuns() {
		t.Errorf("checked suite over an unchecked store computed %d of %d cells, want all",
			s1.ComputedRuns(), s1.CachedRuns())
	}
	if vs := s1.Violations(); len(vs) != 0 {
		t.Errorf("clean checked run reported %v", vs)
	}

	warm, s2 := run(true)
	if warm != cold {
		t.Error("checked replay rendered different bytes than the checked run")
	}
	if got := s2.ComputedRuns(); got != 0 {
		t.Errorf("checked suite over a checked store computed %d cells, want 0", got)
	}

	// Plant a violation in one stored checked payload.
	c := s2.plan([]Entry{entry(t, "fig14")})[0]
	store, err := runcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := cellKey(s2, c)
	payload, ok := store.Get(k)
	if !ok {
		t.Fatal("checked cell missing from the store")
	}
	res, ob, err := shard.DecodeCheckedNode(payload)
	if err != nil {
		t.Fatal(err)
	}
	planted := obs.Violation{Source: "planted", Name: "stored-violation", Detail: "replayed"}
	res.Violations = append(res.Violations, planted)
	if payload, err = shard.EncodeCheckedNode(res, ob); err != nil {
		t.Fatal(err)
	}
	if err := store.Put(k, payload); err != nil {
		t.Fatal(err)
	}
	replayed, s3 := run(true)
	if replayed != cold {
		t.Error("replay with a planted violation rendered different bytes")
	}
	if vs := s3.Violations(); len(vs) != 1 || vs[0] != planted {
		t.Errorf("checked replay reported %v, want the planted violation", vs)
	}
}

// TestCheckedStoresByteIdentical: two checked suites filling fresh
// stores write byte-identical entries — a checked payload's observations
// encode deterministically, so a key names one byte string.
func TestCheckedStoresByteIdentical(t *testing.T) {
	fill := func() string {
		dir := t.TempDir()
		c, err := runcache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		entry(t, "fig14").Run(New(Options{Seed: 5, Quick: true, Seeds: 1, Workers: 2, Check: true,
			Cache: c, CacheVersion: "test-v1"}))
		return dir
	}
	a, b := fill(), fill()
	paths, err := filepath.Glob(filepath.Join(a, "*", "*.rc"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no entries stored (%v)", err)
	}
	for _, p := range paths {
		rel, _ := filepath.Rel(a, p)
		x, _ := os.ReadFile(p)
		y, err := os.ReadFile(filepath.Join(b, rel))
		if err != nil || !bytes.Equal(x, y) {
			t.Errorf("entry %s differs between two fresh checked stores (%v)", rel, err)
		}
	}
}

// renderFig14And11 renders Fig 14 (node cells) and Fig 11 (Monte-Carlo
// ranges) with one suite over the store in dir.
func renderFig14And11(t *testing.T, dir string, workers int) (string, *Suite, *runcache.Cache) {
	t.Helper()
	c, err := runcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{Seed: 5, Quick: true, Seeds: 1, Workers: workers,
		Cache: c, CacheVersion: "test-v1"})
	tabs := s.Run([]Entry{entry(t, "fig14"), entry(t, "fig11")})
	return tabs[0].String() + tabs[1].String(), s, c
}

// TestUndecodablePayloadRecomputed: a stored entry that verifies but
// whose payload does not decode (schema drift the version key missed) is
// recomputed, stored over, and renders the bytes of the original run —
// node cells, which count as computed, and a Monte-Carlo range alike.
// The undecodable cells are recomputed together, so two of them that
// share a front end record it once.
func TestUndecodablePayloadRecomputed(t *testing.T) {
	dir := t.TempDir()
	cold, s1, store := renderFig14And11(t, dir, 2)

	groups := parallel.GroupBy(s1.plan([]Entry{entry(t, "fig14")}), func(c cell) (node.FrontEndKey, bool) {
		return node.FrontEndKeyOf(s1.nodeConfig(c), c.prof), true
	})
	if len(groups[0]) < 2 {
		t.Fatal("first front-end group of Fig 14 holds one cell")
	}
	cells := []runcache.Key{cellKey(s1, groups[0][0]), cellKey(s1, groups[0][1])}
	// The first node-level, margin-aware range of Fig 11.
	mc := runcache.KeyOf("test-v1", shard.MCMaterial{Cfg: s1.monteCarloConfig(), Sel: montecarlo.MarginAware,
		Level: shard.LevelNode, Lo: 0, Hi: mcUnitShards * montecarlo.ShardTrials})
	if _, ok := store.Get(mc); !ok {
		t.Fatal("node-level margin-aware range missing from the store")
	}
	for _, key := range append(cells, mc) {
		if err := store.Put(key, []byte("not a gob payload")); err != nil {
			t.Fatal(err)
		}
	}

	again, s2, _ := renderFig14And11(t, dir, 2)
	if again != cold {
		t.Error("recomputed cells and range rendered different bytes")
	}
	if got := s2.ComputedRuns(); got != len(cells) {
		t.Errorf("computed %d cells, want the %d undecodable cells", got, len(cells))
	}
	if got := s2.Recordings(); got != 1 {
		t.Errorf("recomputing two cells of one front end recorded %d front ends, want 1", got)
	}
	for _, k := range cells {
		payload, ok := store.Get(k)
		if !ok {
			t.Fatal("recomputed cell missing from the store")
		}
		if _, err := shard.DecodeNodeResult(payload); err != nil {
			t.Errorf("undecodable cell payload was not stored over: %v", err)
		}
	}
	payload, ok := store.Get(mc)
	if !ok {
		t.Fatal("recomputed range missing from the store")
	}
	if _, err := shard.DecodeMargins(payload); err != nil {
		t.Errorf("undecodable range payload was not stored over: %v", err)
	}
}

// TestPersistentCacheColdWarmByteIdentical pins the daemon's core
// guarantee at the suite level: with a shared cache directory, a second
// suite instance replays every node cell and Monte-Carlo range from
// disk — zero re-simulations, zero stores — and renders byte-identical
// tables, at a different worker count.
func TestPersistentCacheColdWarmByteIdentical(t *testing.T) {
	dir := t.TempDir()
	cold, s1, c1 := renderFig14And11(t, dir, 1)
	if s1.ComputedRuns() == 0 {
		t.Fatal("cold run computed nothing")
	}
	if s1.CachedRuns() != s1.ComputedRuns() {
		t.Fatalf("cold run replayed from an empty cache: cached=%d computed=%d",
			s1.CachedRuns(), s1.ComputedRuns())
	}
	// Fig 11 runs four Monte-Carlo experiments of two quick ranges each.
	entries := s1.CachedRuns() + 8
	if got := c1.Len(); got != entries {
		t.Errorf("cold run stored %d entries, want %d cells + 8 ranges", got, s1.CachedRuns())
	}

	warm, s2, c2 := renderFig14And11(t, dir, 4)
	if warm != cold {
		t.Fatal("cached replay rendered different bytes than the cold run")
	}
	if got := s2.ComputedRuns(); got != 0 {
		t.Errorf("warm run re-simulated %d cells, want 0", got)
	}
	if s2.CachedRuns() != s1.CachedRuns() {
		t.Errorf("warm run materialized %d cells, cold %d", s2.CachedRuns(), s1.CachedRuns())
	}
	if st := c2.Stats(); st.Hits != uint64(entries) || st.Puts != 0 {
		t.Errorf("warm run read %d hits and stored %d entries, want %d and 0", st.Hits, st.Puts, entries)
	}
}

// TestConcurrentSuitesShareInFlightCells: two suites on one store run
// Fig 12 and Fig 13, which declare the same cells, at the same time.
// Each cell is simulated once between them — a cell one suite is
// computing is waited for, not recomputed, by the other — and both
// render the bytes of a store-less run.
func TestConcurrentSuitesShareInFlightCells(t *testing.T) {
	c, err := runcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Seed: 1, Quick: true, Cache: c, CacheVersion: "test-v1"}
	fig12, fig13 := New(opt), New(opt)
	e12, e13 := entry(t, "fig12"), entry(t, "fig13")
	var tab12, tab13 string
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); tab12 = e12.Run(fig12).String() }()
	go func() { defer wg.Done(); tab13 = e13.Run(fig13).String() }()
	wg.Wait()

	if got, want := fig12.ComputedRuns()+fig13.ComputedRuns(), c.Len(); got != want {
		t.Errorf("suites computed %d+%d cells for %d stored entries",
			fig12.ComputedRuns(), fig13.ComputedRuns(), want)
	}
	ref := New(Options{Seed: 1, Quick: true}).Run([]Entry{e12, e13})
	if tab12 != ref[0].String() || tab13 != ref[1].String() {
		t.Error("concurrent suites on one store rendered different bytes than a store-less run")
	}
}

// TestPersistentCacheCorruptionRecomputed corrupts every stored entry
// and requires the next suite to detect it, recompute, and still render
// identical bytes — a poisoned cache file must never be served.
func TestPersistentCacheCorruptionRecomputed(t *testing.T) {
	dir := t.TempDir()
	run := func() (string, *Suite) {
		c, err := runcache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		s := New(Options{Seed: 5, Quick: true, Seeds: 1, Workers: 2,
			Cache: c, CacheVersion: "test-v1"})
		return entry(t, "fig14").Run(s).String(), s
	}
	cold, s1 := run()

	entries := 0
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".rc") {
			return err
		}
		entries++
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		data[len(data)-1] ^= 0xA5 // flip a payload byte; the digest check must catch it
		return os.WriteFile(path, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	if entries != s1.ComputedRuns() {
		t.Fatalf("stored %d entries for %d computed runs", entries, s1.ComputedRuns())
	}

	again, s2 := run()
	if s2.ComputedRuns() != s1.ComputedRuns() {
		t.Errorf("corrupted cache served: recomputed %d, want %d", s2.ComputedRuns(), s1.ComputedRuns())
	}
	if again != cold {
		t.Error("recomputed output differs from original")
	}
}

// TestPersistentCacheVersionInvalidates: a different code version must
// miss every entry the old version stored.
func TestPersistentCacheVersionInvalidates(t *testing.T) {
	dir := t.TempDir()
	run := func(version string) *Suite {
		c, err := runcache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		s := New(Options{Seed: 5, Quick: true, Seeds: 1, Workers: 2,
			Cache: c, CacheVersion: version})
		entry(t, "fig14").Run(s)
		return s
	}
	s1 := run("build-A")
	s2 := run("build-B")
	if s2.ComputedRuns() != s1.ComputedRuns() {
		t.Errorf("version B replayed version A's entries: computed %d, want %d",
			s2.ComputedRuns(), s1.ComputedRuns())
	}
	s3 := run("build-A")
	if s3.ComputedRuns() != 0 {
		t.Errorf("version A re-simulated %d of its own cells", s3.ComputedRuns())
	}
}

// TestPersistentCacheSeedChangesKey: a different seed shares nothing
// with the warm cache.
func TestPersistentCacheSeedChangesKey(t *testing.T) {
	dir := t.TempDir()
	run := func(seed uint64) *Suite {
		c, err := runcache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		s := New(Options{Seed: seed, Quick: true, Seeds: 1, Workers: 2,
			Cache: c, CacheVersion: "test-v1"})
		entry(t, "fig14").Run(s)
		return s
	}
	s1 := run(5)
	s2 := run(6)
	if s2.ComputedRuns() == 0 {
		t.Error("seed 6 replayed seed 5's entries")
	}
	_ = s1
}

// TestInstrumentedRunsBypassPersistentCache: an observed suite replays
// from the store like any other. Over a store an observed run filled, it
// computes nothing, reads the cells from disk, renders the same tables,
// and reports the cold run's metrics and trace, except the two counters
// of what this process did (experiments/recordings and
// experiments/runcache/computed); the computed counter still equals
// ComputedRuns.
func TestInstrumentedRunsBypassPersistentCache(t *testing.T) {
	dir := t.TempDir()
	run := func() (string, *Suite, *obs.Registry, *runcache.Cache) {
		c, err := runcache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		s := New(Options{Seed: 5, Quick: true, Seeds: 1, Workers: 2,
			Cache: c, CacheVersion: "test-v1", Obs: reg})
		return entry(t, "fig14").Run(s).String(), s, reg, c
	}
	cold, s1, coldReg, _ := run()
	warm, s2, warmReg, c2 := run()
	if warm != cold {
		t.Error("observed replay rendered different bytes than the observed run")
	}
	if got := s2.ComputedRuns(); got != 0 {
		t.Errorf("observed suite over an observed store computed %d cells, want 0", got)
	}
	if st := c2.Stats(); st.Hits == 0 {
		t.Error("observed replay read nothing from the store")
	}
	for _, r := range []struct {
		s   *Suite
		reg *obs.Registry
	}{{s1, coldReg}, {s2, warmReg}} {
		if got := r.reg.Snapshot().Counters["experiments/runcache/computed"]; got != uint64(r.s.ComputedRuns()) {
			t.Errorf("obs computed counter %d, want %d", got, r.s.ComputedRuns())
		}
	}
	traffic := func(name string) bool {
		return name == "experiments/recordings" || name == "experiments/runcache/computed"
	}
	if !reflect.DeepEqual(placementFree(warmReg, traffic), placementFree(coldReg, traffic)) {
		t.Error("observed replay's metrics differ from the observed run's beyond the traffic counters")
	}
	if tr := warmReg.Trace(); len(tr) == 0 || !reflect.DeepEqual(tr, coldReg.Trace()) {
		t.Errorf("observed replay's trace (%d events) differs from the observed run's", len(tr))
	}
}

// TestObservedConcurrentRunsCountCellsOnce: concurrent Runs of one
// observed suite over the same cells each simulate them, but a cell's
// observations merge only when it enters the table, so the registry
// matches a single Run's except the counters of this process's work.
func TestObservedConcurrentRunsCountCellsOnce(t *testing.T) {
	single := obs.NewRegistry()
	entry(t, "fig14").Run(New(Options{Seed: 5, Quick: true, Seeds: 1, Workers: 1, Obs: single}))

	reg := obs.NewRegistry()
	s := New(Options{Seed: 5, Quick: true, Seeds: 1, Workers: 2, Obs: reg})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			entry(t, "fig14").Run(s)
		}()
	}
	wg.Wait()
	traffic := func(name string) bool {
		return name == "experiments/recordings" || name == "experiments/runcache/mem_hits"
	}
	if !reflect.DeepEqual(placementFree(reg, traffic), placementFree(single, traffic)) {
		t.Error("concurrent observed Runs counted a cell more than once")
	}
	if !reflect.DeepEqual(reg.Trace(), single.Trace()) {
		t.Error("concurrent observed Runs traced a cell more than once")
	}
}

// placementFree returns reg's metric snapshot without the counters
// placed names: counters of where cells ran, which differ between runs
// that place the same cells differently.
func placementFree(reg *obs.Registry, placed func(name string) bool) obs.Metrics {
	m := reg.Snapshot()
	names := m.Names[:0]
	for _, name := range m.Names {
		if placed(name) {
			delete(m.Counters, name)
		} else {
			names = append(names, name)
		}
	}
	m.Names = names
	return m
}
