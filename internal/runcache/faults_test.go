package runcache

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
)

func faultedCache(t *testing.T, plan *faultinject.Plan) *Cache {
	t.Helper()
	c, err := OpenOptions(t.TempDir(), Options{Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestFaultGetSlow: a slow read stalls but still serves the verified
// payload — latency injection never costs correctness.
func TestFaultGetSlow(t *testing.T) {
	plan := faultinject.New(1).Arm(FaultGetSlow, faultinject.Rule{P: 1, Count: 1, Delay: 10 * time.Millisecond})
	c := faultedCache(t, plan)
	k := KeyOf("v1", sampleValue())
	payload := []byte("slow but right")
	if err := c.Put(k, payload); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	got, ok := c.Get(k)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("slow read lost the payload: ok=%v", ok)
	}
	if time.Since(start) < 10*time.Millisecond {
		t.Error("injected delay did not stall the read")
	}
	if plan.Injected(FaultGetSlow) != 1 {
		t.Errorf("injected = %d", plan.Injected(FaultGetSlow))
	}
}

// TestFaultGetRead: an injected I/O error degrades to a counted miss and
// the entry is served intact on the next (fault-free) read.
func TestFaultGetRead(t *testing.T) {
	plan := faultinject.New(1).Arm(FaultGetRead, faultinject.Rule{P: 1, Count: 1})
	c := faultedCache(t, plan)
	k := KeyOf("v1", sampleValue())
	payload := []byte("survives a read error")
	if err := c.Put(k, payload); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(k); ok {
		t.Fatal("injected read error served a hit")
	}
	got, ok := c.Get(k)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatal("entry lost after transient read error")
	}
	st := c.Stats()
	if st.Misses != 1 || st.Corrupt != 0 || st.Hits != 1 {
		t.Errorf("stats %+v", st)
	}
}

// TestFaultGetCorrupt: an injected bit flip must be caught by the real
// digest verification and read as a corrupt miss.
func TestFaultGetCorrupt(t *testing.T) {
	plan := faultinject.New(1).Arm(FaultGetCorrupt, faultinject.Rule{P: 1, Count: 1})
	c := faultedCache(t, plan)
	k := KeyOf("v1", sampleValue())
	if err := c.Put(k, []byte("bit rot target")); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(k); ok {
		t.Fatal("corrupted entry was served")
	}
	if st := c.Stats(); st.Corrupt != 1 {
		t.Errorf("stats %+v, want one corrupt miss", st)
	}
	// The flip happened in memory, not on disk: the next read verifies.
	if _, ok := c.Get(k); !ok {
		t.Fatal("entry unreadable after in-memory corruption injection")
	}
}

// TestFaultPutTorn: a torn write reports success, and the damage is
// caught at read time — a corrupt miss, never served data.
func TestFaultPutTorn(t *testing.T) {
	plan := faultinject.New(1).Arm(FaultPutTorn, faultinject.Rule{P: 1, Count: 1})
	c := faultedCache(t, plan)
	k := KeyOf("v1", sampleValue())
	payload := []byte("this entry will be torn in half on disk")
	if err := c.Put(k, payload); err != nil {
		t.Fatalf("torn put must look like success to the writer: %v", err)
	}
	if _, ok := c.Get(k); ok {
		t.Fatal("torn entry was served")
	}
	if st := c.Stats(); st.Corrupt != 1 {
		t.Errorf("stats %+v, want one corrupt miss", st)
	}
	// Re-put (fault exhausted) repairs the entry.
	if err := c.Put(k, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(k)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatal("repair put did not restore the entry")
	}
}

// TestFaultPutRename: a failed rename is a counted put error; the run
// stays uncached and no temp dropping survives.
func TestFaultPutRename(t *testing.T) {
	plan := faultinject.New(1).Arm(FaultPutRename, faultinject.Rule{P: 1, Count: 1})
	c := faultedCache(t, plan)
	k := KeyOf("v1", sampleValue())
	if err := c.Put(k, []byte("never lands")); err == nil {
		t.Fatal("injected rename failure reported success")
	}
	if st := c.Stats(); st.PutErrors != 1 {
		t.Errorf("stats %+v, want one put error", st)
	}
	if _, ok := c.Get(k); ok {
		t.Fatal("failed put left a readable entry")
	}
	if matches, _ := filepath.Glob(filepath.Join(c.Dir(), "*", ".*tmp*")); len(matches) != 0 {
		t.Errorf("temp files left behind: %v", matches)
	}
}

// TestFaultPutENOSPC: a full disk is absorbed — Put returns nil, the
// miss is graceful, and the enospc counter (not put_errors) moves.
func TestFaultPutENOSPC(t *testing.T) {
	reg := obs.NewRegistry()
	plan := faultinject.New(1).Observe(reg).Arm(FaultPutENOSPC, faultinject.Rule{P: 1, Count: 1})
	c := faultedCache(t, plan)
	c.Observe(reg, "cache/disk")
	k := KeyOf("v1", sampleValue())
	if err := c.Put(k, []byte("no room")); err != nil {
		t.Fatalf("ENOSPC must be absorbed, got %v", err)
	}
	st := c.Stats()
	if st.ENOSPC != 1 || st.PutErrors != 0 {
		t.Errorf("stats %+v, want ENOSPC=1 PutErrors=0", st)
	}
	snap := reg.Snapshot()
	if snap.Counters["cache/disk/enospc"] != 1 {
		t.Errorf("obs enospc = %d", snap.Counters["cache/disk/enospc"])
	}
	if snap.Counters["fault/recovered/"+string(FaultPutENOSPC)] != 1 {
		t.Errorf("recovery not counted: %v", snap.Counters)
	}
	// Fault exhausted: the same put now lands.
	if err := c.Put(k, []byte("no room")); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(k); !ok {
		t.Fatal("entry missing after disk pressure cleared")
	}
}

// TestLRUSweepBoundsSize: puts past MaxBytes evict oldest-read entries
// until usage drops under the sweep target, and recently read entries
// survive in preference to stale ones.
func TestLRUSweepBoundsSize(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("x"), 1024)
	entrySize := int64(len(magicPrefix) + 2*32 + len(payload) + 96) // generous
	c, err := OpenOptions(dir, Options{MaxBytes: 8 * entrySize})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]Key, 16)
	for i := range keys {
		keys[i] = KeyOf("v1", fmt.Sprintf("entry-%d", i))
		if err := c.Put(keys[i], payload); err != nil {
			t.Fatal(err)
		}
		// Distinct mtimes so LRU order is well-defined on coarse
		// filesystem timestamps.
		now := time.Now().Add(time.Duration(i-16) * time.Minute)
		os.Chtimes(c.path(keys[i]), now, now)
	}
	c.sweepLRU()
	if got := c.Stats().Evictions; got == 0 {
		t.Fatal("no evictions despite 2x overshoot")
	}
	if _, usage := entries(dir); usage > 8*entrySize {
		t.Errorf("usage %d still above budget %d after sweep", usage, 8*entrySize)
	}
	// The newest entries must have survived the sweep.
	if _, ok := c.Get(keys[15]); !ok {
		t.Error("most recently written entry was evicted")
	}
	if _, ok := c.Get(keys[0]); ok {
		t.Error("oldest entry survived a sweep that evicted others")
	}
}

// TestOpenCountsExistingBytes: the size bound applies to entries that
// predate this process.
func TestOpenCountsExistingBytes(t *testing.T) {
	dir := t.TempDir()
	c1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Put(KeyOf("v1", "old"), bytes.Repeat([]byte("y"), 2048)); err != nil {
		t.Fatal(err)
	}
	c2, err := OpenOptions(dir, Options{MaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if c2.size.Load() < 2048 {
		t.Errorf("size after reopen = %d, want >= 2048", c2.size.Load())
	}
}

// TestSweepSkipsLivePIDTemps: the open sweep removes a dead writer's
// temp immediately but never touches a live writer's, however old.
func TestSweepSkipsLivePIDTemps(t *testing.T) {
	dir := t.TempDir()
	k := KeyOf("v1", sampleValue())
	sub := filepath.Join(dir, k.String()[:2])
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	// Our own PID is live by definition; 1<<22 exceeds the default
	// pid_max, so no process can own it.
	live := filepath.Join(sub, "."+k.String()+".tmp."+fmt.Sprint(os.Getpid())+"-1")
	dead := filepath.Join(sub, "."+k.String()+".tmp."+fmt.Sprint(1<<22)+"-1")
	legacy := filepath.Join(sub, "."+k.String()+".tmp12345")
	for _, p := range []string{live, dead, legacy} {
		if err := os.WriteFile(p, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Make every temp ancient, so only PID liveness can save the live one.
	old := time.Now().Add(-2 * staleTempAge)
	for _, p := range []string{live, dead, legacy} {
		os.Chtimes(p, old, old)
	}
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(live); err != nil {
		t.Error("sweep removed a live writer's temp")
	}
	if _, err := os.Stat(dead); err == nil {
		t.Error("sweep kept a dead writer's temp")
	}
	if _, err := os.Stat(legacy); err == nil {
		t.Error("sweep kept an ancient unparseable temp")
	}

	// A fresh unparseable temp survives on the age fallback.
	if err := os.WriteFile(legacy, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(legacy); err != nil {
		t.Error("sweep removed a fresh unparseable temp")
	}
}

func TestTempOwnerParsing(t *testing.T) {
	cases := map[string]int{
		".abc.tmp.1234-xyz": 1234,
		".abc.tmp.0-xyz":    0,
		".abc.tmp.x-1":      0,
		".abc.tmp12345":     0,
		".abc.tmp.99":       0, // no "-" suffix: not ours
	}
	for base, want := range cases {
		if got := tempOwner(base); got != want {
			t.Errorf("tempOwner(%q) = %d, want %d", base, got, want)
		}
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "spec.json")
	for _, data := range [][]byte{[]byte("first"), []byte("second, longer")} {
		if err := WriteFileAtomic(path, data); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("read back %q, %v", got, err)
		}
	}
	if matches, _ := filepath.Glob(filepath.Join(dir, ".*tmp*")); len(matches) != 0 {
		t.Errorf("temp files left behind: %v", matches)
	}
}
