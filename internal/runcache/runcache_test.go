package runcache

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

type inner struct {
	A int64
	B float64
}

type sample struct {
	Name  string
	Seed  uint64
	Rate  int
	Frac  float64
	Inner inner
	Fast  *inner
	List  []int
	M     map[string]int
}

func sampleValue() sample {
	return sample{
		Name: "hier1", Seed: 7, Rate: 3200, Frac: 0.25,
		Inner: inner{A: 1, B: 2.5},
		Fast:  &inner{A: 9, B: -0.125},
		List:  []int{1, 2, 3},
		M:     map[string]int{"b": 2, "a": 1},
	}
}

func TestCanonicalDeterministic(t *testing.T) {
	a, b := Canonical(sampleValue()), Canonical(sampleValue())
	if a != b {
		t.Fatalf("canonical encoding unstable:\n%s\n%s", a, b)
	}
	if !strings.Contains(a, "Name:") || !strings.Contains(a, "Fast:&") {
		t.Errorf("canonical encoding missing field structure: %s", a)
	}
	// Map order must be key-sorted, not insertion-ordered.
	if strings.Index(a, `"a"`) > strings.Index(a, `"b"`) {
		t.Errorf("map keys not sorted: %s", a)
	}
}

// TestKeyChangesWithEveryField mutates each field of the key material in
// turn and requires a different key: a cache that ignores any input
// field serves wrong results.
func TestKeyChangesWithEveryField(t *testing.T) {
	base := KeyOf("v1", sampleValue())
	muts := map[string]func(*sample){
		"Name":      func(s *sample) { s.Name = "hier2" },
		"Seed":      func(s *sample) { s.Seed++ },
		"Rate":      func(s *sample) { s.Rate = 4000 },
		"Frac":      func(s *sample) { s.Frac = math.Nextafter(s.Frac, 1) },
		"Inner.A":   func(s *sample) { s.Inner.A++ },
		"Inner.B":   func(s *sample) { s.Inner.B = -s.Inner.B },
		"Fast-nil":  func(s *sample) { s.Fast = nil },
		"Fast.B":    func(s *sample) { s.Fast.B++ },
		"List":      func(s *sample) { s.List[2] = 4 },
		"List-len":  func(s *sample) { s.List = s.List[:2] },
		"Map-value": func(s *sample) { s.M["a"] = 3 },
	}
	for name, mut := range muts {
		v := sampleValue()
		mut(&v)
		if KeyOf("v1", v) == base {
			t.Errorf("mutating %s did not change the key", name)
		}
	}
	if KeyOf("v2", sampleValue()) == base {
		t.Error("changing the code version did not change the key")
	}
	if KeyOf("v1", sampleValue()) != base {
		t.Error("identical value+version produced a different key")
	}
}

func TestCanonicalRejectsUnhashable(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Canonical accepted a func value")
		}
	}()
	Canonical(struct{ F func() }{})
}

func TestPutGetRoundTrip(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := KeyOf("v1", sampleValue())
	payload := []byte("hello\nresult bytes \x00\xff")
	if _, ok := c.Get(k); ok {
		t.Fatal("hit on empty cache")
	}
	if err := c.Put(k, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(k)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: ok=%v got=%q", ok, got)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Corrupt != 0 {
		t.Errorf("stats %+v", st)
	}
	if c.Len() != 1 {
		t.Errorf("Len=%d, want 1", c.Len())
	}
	// No temp droppings after a clean put.
	matches, _ := filepath.Glob(filepath.Join(c.Dir(), "*", ".*tmp*"))
	if len(matches) != 0 {
		t.Errorf("temp files left behind: %v", matches)
	}
}

// TestCorruptEntryIsMissNotServed flips one payload byte, truncates the
// file, and wipes the header in turn; every variant must read as a miss
// (counted as corrupt), never as data.
func TestCorruptEntryIsMissNotServed(t *testing.T) {
	corruptions := map[string]func([]byte) []byte{
		"flip-payload-byte": func(b []byte) []byte { b[len(b)-3] ^= 0x40; return b },
		"truncate":          func(b []byte) []byte { return b[:len(b)-5] },
		"bad-magic":         func(b []byte) []byte { b[0] = 'X'; return b },
		"empty":             func(b []byte) []byte { return nil },
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			c, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			k := KeyOf("v1", name)
			if err := c.Put(k, []byte("precious payload")); err != nil {
				t.Fatal(err)
			}
			path := c.path(k)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, corrupt(data), 0o644); err != nil {
				t.Fatal(err)
			}
			if got, ok := c.Get(k); ok {
				t.Fatalf("corrupt entry served: %q", got)
			}
			st := c.Stats()
			if st.Corrupt != 1 {
				t.Errorf("corrupt count %d, want 1", st.Corrupt)
			}
			// The slot is recoverable: a fresh put serves again.
			if err := c.Put(k, []byte("recomputed")); err != nil {
				t.Fatal(err)
			}
			if got, ok := c.Get(k); !ok || string(got) != "recomputed" {
				t.Fatalf("recomputed entry not served: ok=%v got=%q", ok, got)
			}
		})
	}
}

// TestWrongKeyFileRejected: an entry renamed to another key's path (a
// poisoned or mislaid file) fails the embedded-key check.
func TestWrongKeyFileRejected(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k1, k2 := KeyOf("v1", 1), KeyOf("v1", 2)
	if err := c.Put(k1, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(c.path(k2)), 0o755); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(c.path(k1))
	if err := os.WriteFile(c.path(k2), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(k2); ok {
		t.Fatal("entry with mismatched embedded key served")
	}
}

func TestObserveMirrorsCounters(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	c.Observe(reg, "simd/runcache")
	k := KeyOf("v1", "x")
	c.Get(k)
	c.Put(k, []byte("p"))
	c.Get(k)
	// One Do that waits on another's flight: a miss, a put and a
	// coalesced wait.
	leaderAndWaiters(t, c, KeyOf("v1", "y"), 1,
		func() ([]byte, error) { return []byte("q"), nil },
		func() ([]byte, error) { return []byte("q"), nil })
	snap := reg.Snapshot()
	if snap.Counters["simd/runcache/hits"] != 1 ||
		snap.Counters["simd/runcache/misses"] != 2 ||
		snap.Counters["simd/runcache/puts"] != 2 ||
		snap.Counters["simd/runcache/coalesced"] != 1 {
		t.Errorf("obs counters %v", snap.Counters)
	}
}

// TestStatsReadTheObservedCounters: Stats and the registry read one set
// of counters. Traffic before Observe carries over into the registry,
// traffic after it reaches both, and a nil registry changes nothing.
func TestStatsReadTheObservedCounters(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	q := func() ([]byte, error) { return []byte("q"), nil }
	traffic := func(name string) {
		k := KeyOf("v1", name)
		c.Get(k)
		c.Put(k, []byte("p"))
		c.Get(k)
		leaderAndWaiters(t, c, KeyOf("v1", name+"/do"), 1, q, q)
	}
	// Each round: 1 hit, 2 misses, 2 puts, 1 coalesced wait.
	round := Stats{Hits: 1, Misses: 2, Puts: 2, Coalesced: 1}
	reg := obs.NewRegistry()
	check := func(when string, rounds uint64) {
		t.Helper()
		st := c.Stats()
		want := Stats{Hits: rounds * round.Hits, Misses: rounds * round.Misses, Puts: rounds * round.Puts, Coalesced: rounds * round.Coalesced}
		if st != want {
			t.Errorf("%s: Stats %+v, want %+v", when, st, want)
		}
		snap := reg.Snapshot()
		for name, v := range map[string]uint64{"hits": st.Hits, "misses": st.Misses, "puts": st.Puts, "coalesced": st.Coalesced} {
			if got := snap.Counters["simd/runcache/"+name]; got != v {
				t.Errorf("%s: simd/runcache/%s = %d, Stats says %d", when, name, got, v)
			}
		}
	}
	traffic("before")
	c.Observe(reg, "simd/runcache")
	check("after Observe", 1)
	traffic("after")
	check("after more traffic", 2)
	c.Observe(nil, "elsewhere")
	traffic("after nil")
	check("after Observe(nil)", 3)
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("Open(\"\") succeeded")
	}
}

func TestCodeVersionNonEmpty(t *testing.T) {
	v := CodeVersion()
	if !strings.HasPrefix(v, SchemaVersion) {
		t.Errorf("CodeVersion %q does not start with schema version", v)
	}
}
