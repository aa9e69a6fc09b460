package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/runcache"
)

// doneEntries counts map entries whose result has been materialized. At
// quiescence it must equal size().
func (c *runCache) doneEntries() int {
	n := 0
	c.m.Range(func(_, v any) bool {
		e := v.(*runEntry)
		e.mu.Lock()
		if e.done {
			n++
		}
		e.mu.Unlock()
		return true
	})
	return n
}

// TestRunCachePanicDoesNotPoison is the regression test for the
// sync.Once poisoning bug: a compute that panics used to consume the
// entry's Once, so every later caller for that key silently received a
// zero-value node.Result and suite averages were built from garbage.
// Now the panic propagates, the entry stays unmaterialized, and the next
// caller recomputes.
func TestRunCachePanicDoesNotPoison(t *testing.T) {
	var c runCache
	key := runKey{hier: "h", bench: "b", seed: 1}

	panicked := func() (p any) {
		defer func() { p = recover() }()
		c.get(key, nil, func() node.Result { panic("compute exploded") })
		return nil
	}()
	if panicked == nil {
		t.Fatal("panic in compute did not propagate to the caller")
	}
	if c.size() != 0 || c.doneEntries() != 0 || c.computedRuns() != 0 {
		t.Fatalf("panicked compute left state behind: size=%d done=%d computed=%d",
			c.size(), c.doneEntries(), c.computedRuns())
	}

	calls := 0
	res := c.get(key, nil, func() node.Result { calls++; return node.Result{ExecPS: 42} })
	if res.ExecPS != 42 || calls != 1 {
		t.Fatalf("retry after panic: res=%+v calls=%d (poisoned key served a zero value?)", res, calls)
	}
	// And the key now behaves like any cached entry.
	res = c.get(key, nil, func() node.Result { calls++; return node.Result{ExecPS: 99} })
	if res.ExecPS != 42 || calls != 1 {
		t.Fatalf("cached entry not served after recovery: res=%+v calls=%d", res, calls)
	}
	if c.size() != 1 || c.doneEntries() != 1 || c.computedRuns() != 1 {
		t.Fatalf("counter/map inconsistent: size=%d done=%d computed=%d",
			c.size(), c.doneEntries(), c.computedRuns())
	}
}

// TestRunCachePanicConcurrentRetry races waiters against a panicking
// first compute: exactly one of the survivors recomputes, the rest are
// served, and nobody sees a zero value.
func TestRunCachePanicConcurrentRetry(t *testing.T) {
	var c runCache
	key := runKey{hier: "h2", bench: "b", seed: 2}
	var mu sync.Mutex
	first := true
	var wg sync.WaitGroup
	results := make([]int64, 8)
	for i := range results {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			defer func() { recover() }() // the unlucky first caller absorbs the panic
			r := c.get(key, nil, func() node.Result {
				mu.Lock()
				f := first
				first = false
				mu.Unlock()
				if f {
					panic("first compute dies")
				}
				return node.Result{ExecPS: 7}
			})
			results[slot] = r.ExecPS
		}(i)
	}
	wg.Wait()
	served := 0
	for _, v := range results {
		switch v {
		case 7:
			served++
		case 0: // the panicked goroutine's slot
		default:
			t.Fatalf("impossible result %d", v)
		}
	}
	if served < len(results)-1 {
		t.Fatalf("only %d/%d callers served after panic retry", served, len(results))
	}
	if c.size() != 1 || c.doneEntries() != 1 {
		t.Fatalf("size=%d doneEntries=%d after concurrent retry", c.size(), c.doneEntries())
	}
}

// TestPersistentCacheColdWarmByteIdentical pins the daemon's core
// guarantee at the suite level: with a shared cache directory, a second
// suite instance replays every cell from disk — zero re-simulations —
// and renders byte-identical tables, at a different worker count.
func TestPersistentCacheColdWarmByteIdentical(t *testing.T) {
	dir := t.TempDir()
	render := func(workers int) (string, *Suite) {
		c, err := runcache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		s := New(Options{Seed: 5, Quick: true, Seeds: 1, Workers: workers,
			Cache: c, CacheVersion: "test-v1"})
		return entry(t, "fig14").Run(s).String(), s
	}
	cold, s1 := render(1)
	if s1.ComputedRuns() == 0 {
		t.Fatal("cold run computed nothing")
	}
	if s1.CachedRuns() != s1.ComputedRuns() {
		t.Fatalf("cold run replayed from an empty cache: cached=%d computed=%d",
			s1.CachedRuns(), s1.ComputedRuns())
	}

	warm, s2 := render(4)
	if warm != cold {
		t.Fatal("cached replay rendered different bytes than the cold run")
	}
	if got := s2.ComputedRuns(); got != 0 {
		t.Errorf("warm run re-simulated %d cells, want 0", got)
	}
	if s2.CachedRuns() != s1.CachedRuns() {
		t.Errorf("warm run materialized %d cells, cold %d", s2.CachedRuns(), s1.CachedRuns())
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

// TestInstrumentedRunsBypassPersistentCache: with Check or Obs set the
// suite must simulate live (replays cannot reproduce traces or
// violations), while cache-traffic counters still reach the registry.
func TestInstrumentedRunsBypassPersistentCache(t *testing.T) {
	dir := t.TempDir()
	c, err := runcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	warm := New(Options{Seed: 5, Quick: true, Seeds: 1, Workers: 1,
		Cache: c, CacheVersion: "test-v1"})
	entry(t, "fig14").Run(warm)

	c2, err := runcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s := New(Options{Seed: 5, Quick: true, Seeds: 1, Workers: 1,
		Cache: c2, CacheVersion: "test-v1", Obs: reg})
	entry(t, "fig14").Run(s)
	if s.ComputedRuns() == 0 {
		t.Error("instrumented run served from the persistent cache")
	}
	snap := reg.Snapshot()
	if snap.Counters["experiments/runcache/computed"] != uint64(s.ComputedRuns()) {
		t.Errorf("obs computed counter %d, want %d",
			snap.Counters["experiments/runcache/computed"], s.ComputedRuns())
	}
	if st := c2.Stats(); st.Hits != 0 {
		t.Errorf("instrumented run hit the disk cache %d times", st.Hits)
	}
}
