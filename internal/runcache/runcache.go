// Package runcache is the persistent, content-addressed result cache
// under the experiment engine and the simd daemon. Entries are keyed by
// a canonical hash of everything that determines a simulation's output —
// the fully resolved configuration, the seed, and the code version — and
// stored as self-verifying files under a cache directory, so a
// simulation cell stored by one process, run or client is replayed, not
// recomputed, by every later one.
//
// Layering: Do is the one "look up, compute on a miss, store" path.
// Within one process it coalesces in-flight computations: concurrent Do
// calls for a key run the computation once, whichever suite, job or
// shard batch asked, and the others receive the leader's bytes. Across
// processes sharing is through the files only: processes running at the
// same time can each compute a cell that neither has stored yet, and
// both Puts converge on the same bytes. The experiment engine keeps its
// per-suite in-memory table on top, so a suite reads each cell from the
// store at most once.
//
// Integrity: a cache file embeds its key and a SHA-256 digest of its
// payload. Get re-verifies both on every read; a truncated, corrupted,
// or mis-keyed file is treated as a miss (and counted), never served.
// Puts write a PID-tagged temporary file and rename it into place, so
// readers never observe a partially written entry and concurrent writers
// of the same key converge on identical bytes.
//
// Degradation: every disk failure maps to a cache miss, never a run
// failure. A full disk (ENOSPC) is absorbed as "the run stays uncached"
// and triggers an LRU sweep; when Options.MaxBytes is set the cache
// additionally self-bounds by evicting oldest-read entries. The optional
// faultinject.Plan drives the chaos suite's injected torn writes, bit
// corruption, ENOSPC, rename failures, and slow reads through the same
// recovery paths real faults take.
package runcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
)

// SchemaVersion names the on-disk entry format and the canonical
// encoding. Bump it whenever either changes incompatibly: the version is
// mixed into every key, so old entries simply stop matching.
const SchemaVersion = "rc1"

// Fault sites injected by this package (armed through Options.Faults;
// see internal/faultinject). Each maps onto the recovery path a real
// fault of that shape would take.
const (
	// FaultGetSlow stalls a read by the rule's delay (slow disk).
	FaultGetSlow faultinject.Site = "runcache/get/slow"
	// FaultGetRead fails a read outright (I/O error → miss).
	FaultGetRead faultinject.Site = "runcache/get/read"
	// FaultGetCorrupt flips a payload bit after the read, so the real
	// digest verification rejects the entry (bit rot → corrupt miss).
	FaultGetCorrupt faultinject.Site = "runcache/get/corrupt"
	// FaultPutTorn renames a truncated entry into place and reports
	// success — the torn write is only discovered by a later Get.
	FaultPutTorn faultinject.Site = "runcache/put/torn"
	// FaultPutRename fails the final rename (crossed filesystems,
	// permission loss → put error, run stays uncached).
	FaultPutRename faultinject.Site = "runcache/put/rename"
	// FaultPutENOSPC fails the temp write with ENOSPC (full disk →
	// graceful miss plus sweep).
	FaultPutENOSPC faultinject.Site = "runcache/put/enospc"
)

// Key is the content address of one cache entry: a SHA-256 over the
// canonical encoding of the entry's inputs and the code version.
type Key [sha256.Size]byte

// String returns the key as lowercase hex (the on-disk file name).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// KeyOf hashes the canonical encoding of v, prefixed by the code
// version. Two values produce the same key iff every (exported) field,
// recursively, is identical and the version strings match — so changing
// any configuration field, the seed, or the code version changes the key.
func KeyOf(version string, v any) Key {
	h := sha256.New()
	h.Write([]byte(version))
	h.Write([]byte{0})
	h.Write([]byte(Canonical(v)))
	var k Key
	h.Sum(k[:0])
	return k
}

// Canonical renders v as a deterministic string: structs as
// "TypeName{Field:value,...}" in declaration order, pointers dereferenced
// ("nil" when nil), slices and arrays elementwise, maps in sorted-key
// order, floats in exact hex notation so every bit of the value reaches
// the hash. It panics on values that have no canonical form (functions,
// channels, unsafe pointers): cache keys must never silently ignore part
// of their input.
func Canonical(v any) string {
	var b strings.Builder
	writeCanonical(&b, reflect.ValueOf(v))
	return b.String()
}

func writeCanonical(b *strings.Builder, v reflect.Value) {
	if !v.IsValid() {
		b.WriteString("nil")
		return
	}
	switch v.Kind() {
	case reflect.Bool:
		b.WriteString(strconv.FormatBool(v.Bool()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		b.WriteString(strconv.FormatInt(v.Int(), 10))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		b.WriteString(strconv.FormatUint(v.Uint(), 10))
	case reflect.Float32, reflect.Float64:
		// 'x' format is exact: every distinct bit pattern renders
		// distinctly (including negative zero and infinities).
		b.WriteString(strconv.FormatFloat(v.Float(), 'x', -1, 64))
	case reflect.String:
		b.WriteString(strconv.Quote(v.String()))
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			b.WriteString("nil")
			return
		}
		b.WriteString("&")
		writeCanonical(b, v.Elem())
	case reflect.Slice:
		if v.IsNil() {
			b.WriteString("nil")
			return
		}
		writeSeq(b, v)
	case reflect.Array:
		writeSeq(b, v)
	case reflect.Struct:
		t := v.Type()
		b.WriteString(t.Name())
		b.WriteString("{")
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				panic(fmt.Sprintf("runcache: unexported field %s.%s has no canonical form; hash an explicit key struct instead", t.Name(), f.Name))
			}
			if i > 0 {
				b.WriteString(",")
			}
			b.WriteString(f.Name)
			b.WriteString(":")
			writeCanonical(b, v.Field(i))
		}
		b.WriteString("}")
	case reflect.Map:
		if v.IsNil() {
			b.WriteString("nil")
			return
		}
		keys := v.MapKeys()
		rendered := make([]string, len(keys))
		for i, k := range keys {
			var kb strings.Builder
			writeCanonical(&kb, k)
			rendered[i] = kb.String()
		}
		idx := make([]int, len(keys))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(i, j int) bool { return rendered[idx[i]] < rendered[idx[j]] })
		b.WriteString("map[")
		for n, i := range idx {
			if n > 0 {
				b.WriteString(",")
			}
			b.WriteString(rendered[i])
			b.WriteString(":")
			writeCanonical(b, v.MapIndex(keys[i]))
		}
		b.WriteString("]")
	default:
		panic(fmt.Sprintf("runcache: %s has no canonical form", v.Kind()))
	}
}

func writeSeq(b *strings.Builder, v reflect.Value) {
	b.WriteString("[")
	for i := 0; i < v.Len(); i++ {
		if i > 0 {
			b.WriteString(",")
		}
		writeCanonical(b, v.Index(i))
	}
	b.WriteString("]")
}

// CodeVersion derives the "code version" component of every cache key
// from the build's embedded VCS metadata: SchemaVersion plus the commit
// revision, with a "+dirty" marker for locally modified builds. Binaries
// built without VCS stamping (go test, detached builds) fall back to
// SchemaVersion alone — callers that need stronger isolation (two
// different uncommitted builds sharing one cache directory) should pass
// an explicit version instead.
func CodeVersion() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return SchemaVersion
	}
	var rev, modified string
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			modified = s.Value
		}
	}
	if rev == "" {
		return SchemaVersion
	}
	v := SchemaVersion + "+" + rev
	if modified == "true" {
		v += "+dirty"
	}
	return v
}

// Stats counts cache traffic since Open. All fields are cumulative.
type Stats struct {
	Hits      uint64 // entries served (verified) from disk
	Misses    uint64 // lookups with no usable entry
	Corrupt   uint64 // of Misses: a file existed but failed verification
	Puts      uint64 // entries written
	PutErrors uint64 // writes that failed (the run continues uncached)
	ENOSPC    uint64 // of PutErrors absorbed: full disk, run stays uncached
	Evictions uint64 // entries removed by the LRU size sweep
	// Coalesced counts Do calls served by another caller's flight (its
	// lookup or its computation), so Hits + Misses + Coalesced equals the
	// Do calls plus the plain Gets.
	Coalesced uint64
}

// Options configures a cache beyond its directory.
type Options struct {
	// MaxBytes soft-caps the total entry bytes on disk. When a put pushes
	// the cache past it, the oldest-read entries are swept until usage
	// drops to sweepTarget of the cap. 0 means unbounded.
	MaxBytes int64
	// Faults arms this cache's fault-injection sites; nil (production)
	// injects nothing.
	Faults *faultinject.Plan
}

// Cache is a directory of content-addressed entries. It is safe for
// concurrent use by multiple goroutines and, thanks to atomic renames
// and read-time verification, by multiple processes sharing the
// directory.
type Cache struct {
	dir    string
	opts   Options
	faults *faultinject.Plan

	size    atomic.Int64 // bytes in .rc entries (tracked when MaxBytes > 0)
	sweepMu sync.Mutex   // one LRU sweep at a time

	flightMu sync.Mutex
	flights  map[Key]*flight // Do calls in progress, by key

	hits, misses, corrupt, puts, putErrors, enospc, evictions, coalesced obs.Counter

	// Optional obs mirrors (nil-safe handles): wired by Observe so the
	// daemon's exported metrics show cache traffic live.
	obsHits, obsMisses, obsCorrupt, obsPuts, obsPutErrors, obsENOSPC, obsEvictions, obsCoalesced *obs.Counter
}

// flight is one Do call's lookup and computation of a key. Waiters block
// on done; ok reports whether the leader published payload. A flight is
// removed from the table before done closes, so it holds the payload only
// until its waiters wake.
type flight struct {
	done    chan struct{}
	payload []byte
	ok      bool
}

// Open creates (if needed) and returns the cache rooted at dir with
// default options (unbounded, no fault injection).
func Open(dir string) (*Cache, error) { return OpenOptions(dir, Options{}) }

// OpenOptions creates (if needed) and returns the cache rooted at dir.
// Orphaned temporary files — left behind by a writer killed between
// CreateTemp and the atomic rename — are swept on open: temps whose name
// carries the PID of a dead process are removed immediately, temps owned
// by a live process are never disturbed, and unparseable temp names fall
// back to an age check. When opts.MaxBytes is set the current entry
// bytes are tallied so the size bound applies from the first put.
func OpenOptions(dir string, opts Options) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("runcache: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runcache: %w", err)
	}
	sweepStaleTemps(dir)
	c := &Cache{dir: dir, opts: opts, faults: opts.Faults, flights: map[Key]*flight{}}
	if opts.MaxBytes > 0 {
		c.size.Store(diskUsage(dir))
	}
	return c, nil
}

// staleTempAge is how old an orphaned temp file must be before the open
// sweep removes it when its owner cannot be identified from the name.
// PID-tagged temps (everything this package writes) don't need the
// slack: liveness is checked directly.
const staleTempAge = time.Hour

// tempPattern returns the CreateTemp pattern for an entry's temp file:
// ".<key>.tmp.<pid>-*". Embedding the writer's PID lets the open sweep
// distinguish a temp owned by a live writer (skip, however old) from the
// dropping of a dead one (remove, however fresh).
func tempPattern(k Key) string {
	return "." + k.String() + ".tmp." + strconv.Itoa(os.Getpid()) + "-*"
}

// tempOwner extracts the writer PID from a temp file name, or 0 when the
// name predates PID tagging (or isn't ours).
func tempOwner(base string) int {
	_, rest, ok := strings.Cut(base, ".tmp.")
	if !ok {
		return 0
	}
	pidStr, _, ok := strings.Cut(rest, "-")
	if !ok {
		return 0
	}
	pid, err := strconv.Atoi(pidStr)
	if err != nil || pid <= 0 {
		return 0
	}
	return pid
}

// pidAlive reports whether a process with the given PID exists (signal
// 0 probe; EPERM still means "exists").
func pidAlive(pid int) bool {
	if pid <= 0 {
		return false
	}
	proc, err := os.FindProcess(pid)
	if err != nil {
		return false
	}
	err = proc.Signal(syscall.Signal(0))
	return err == nil || errors.Is(err, syscall.EPERM)
}

// sweepStaleTemps removes orphaned ".<key>.tmp*" droppings. A temp whose
// name names a dead PID is removed immediately; a live PID's temp is
// skipped no matter how old (a stalled writer's in-flight put must not
// be torn out from under it); a name without a parseable PID falls back
// to the mtime age check. Best-effort: a sweep failure never blocks
// opening the cache, and a concurrently renamed or re-swept file is
// simply gone by the time Remove runs.
func sweepStaleTemps(dir string) {
	cutoff := time.Now().Add(-staleTempAge)
	filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		base := filepath.Base(path)
		if !strings.HasPrefix(base, ".") || !strings.Contains(base, ".tmp") {
			return nil
		}
		if pid := tempOwner(base); pid != 0 {
			if !pidAlive(pid) {
				os.Remove(path)
			}
			return nil
		}
		if info, err := d.Info(); err == nil && info.ModTime().Before(cutoff) {
			os.Remove(path)
		}
		return nil
	})
}

// diskUsage sums the sizes of the cache's entry files.
func diskUsage(dir string) int64 {
	var total int64
	filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".rc") {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total
}

// Dir returns the cache's root directory.
func (c *Cache) Dir() string { return c.dir }

// Observe mirrors the cache's counters into a registry under
// scope+"/hits", "/misses", "/corrupt", "/puts", "/put_errors",
// "/enospc", "/evictions", and "/coalesced", so cache traffic appears in
// exported metrics as it happens.
func (c *Cache) Observe(reg *obs.Registry, scope string) {
	c.obsHits = reg.Counter(scope + "/hits")
	c.obsMisses = reg.Counter(scope + "/misses")
	c.obsCorrupt = reg.Counter(scope + "/corrupt")
	c.obsPuts = reg.Counter(scope + "/puts")
	c.obsPutErrors = reg.Counter(scope + "/put_errors")
	c.obsENOSPC = reg.Counter(scope + "/enospc")
	c.obsEvictions = reg.Counter(scope + "/evictions")
	c.obsCoalesced = reg.Counter(scope + "/coalesced")
}

// Stats returns a snapshot of the cache's counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:      c.hits.Value(),
		Misses:    c.misses.Value(),
		Corrupt:   c.corrupt.Value(),
		Puts:      c.puts.Value(),
		PutErrors: c.putErrors.Value(),
		ENOSPC:    c.enospc.Value(),
		Evictions: c.evictions.Value(),
		Coalesced: c.coalesced.Value(),
	}
}

// Do returns the payload stored under k, computing it on a miss and
// storing the fresh payload: Get, then compute, then Put. Within one
// process, concurrent Do calls for k run this once. The first caller
// (the leader) registers a flight before its Get and removes it only
// after its Put, so while no flight exists the entry is either stored or
// nobody is computing it. The other callers wait for the leader and
// receive its payload with computed=false, as for a hit, and a failed
// or torn Put does not reach them: they get the leader's in-memory
// bytes.
//
// computed reports whether this call ran compute, and err is compute's
// error. A compute that errors or panics publishes nothing: the error
// or panic reaches the leader only, and each waiter tries again, one of
// them as the new leader.
//
// compute must not call Do, on this or any Cache, and must not wait on
// anything a caller holds while it calls Do. Each goroutine then leads
// or waits on at most one flight at a time, and flights cannot
// deadlock.
func (c *Cache) Do(k Key, compute func() ([]byte, error)) (payload []byte, computed bool, err error) {
	for {
		c.flightMu.Lock()
		f, waiting := c.flights[k]
		if !waiting {
			f = &flight{done: make(chan struct{})}
			c.flights[k] = f
		}
		c.flightMu.Unlock()
		if !waiting {
			return c.lead(k, f, compute)
		}
		<-f.done
		if f.ok {
			c.coalesced.Add(1)
			c.obsCoalesced.Add(1)
			return f.payload, false, nil
		}
	}
}

// lead is Do for the caller that registered flight f: it looks k up,
// computes and stores it on a miss, and publishes the payload to f's
// waiters. The deferred release also runs when compute panics.
func (c *Cache) lead(k Key, f *flight, compute func() ([]byte, error)) ([]byte, bool, error) {
	defer func() {
		c.flightMu.Lock()
		delete(c.flights, k)
		c.flightMu.Unlock()
		close(f.done)
	}()
	if payload, ok := c.Get(k); ok {
		f.payload, f.ok = payload, true
		return payload, false, nil
	}
	payload, err := compute()
	if err != nil {
		return nil, true, err
	}
	// Put failures are counted by the store; the entry stays uncached,
	// and the waiters still get the payload.
	_ = c.Put(k, payload)
	f.payload, f.ok = payload, true
	return payload, true, nil
}

// entry file layout: three header lines then the raw payload.
//
//	runcache <SchemaVersion>\n
//	key <hex key>\n
//	sha256 <hex payload digest> len <payload length>\n
//	<payload bytes>
const magicPrefix = "runcache " + SchemaVersion + "\n"

// path shards entries by the first byte of the key so directories stay
// small at millions of entries.
func (c *Cache) path(k Key) string {
	name := k.String()
	return filepath.Join(c.dir, name[:2], name+".rc")
}

// Get returns the verified payload for k, or ok=false on any miss —
// including a present-but-corrupt file, which is never served.
func (c *Cache) Get(k Key) (payload []byte, ok bool) {
	c.faults.Sleep(FaultGetSlow)
	data, err := os.ReadFile(c.path(k))
	if err == nil && c.faults.Should(FaultGetRead) {
		err = errors.New("injected read failure")
	}
	if err != nil {
		c.faults.Recovered(FaultGetRead)
		c.misses.Add(1)
		c.obsMisses.Add(1)
		return nil, false
	}
	if c.faults.Should(FaultGetCorrupt) && len(data) > 0 {
		// Flip one payload bit and let the real digest check catch it —
		// the injection exercises verification, not a shortcut around it.
		data[len(data)-1] ^= 1
	}
	payload, err = decodeEntry(k, data)
	if err != nil {
		c.faults.Recovered(FaultGetCorrupt)
		c.misses.Add(1)
		c.corrupt.Add(1)
		c.obsMisses.Add(1)
		c.obsCorrupt.Add(1)
		return nil, false
	}
	if c.opts.MaxBytes > 0 {
		// Refresh the entry's read time so the LRU sweep sees hot
		// entries as young. Best-effort.
		now := time.Now()
		os.Chtimes(c.path(k), now, now)
	}
	c.hits.Add(1)
	c.obsHits.Add(1)
	return payload, true
}

// decodeEntry verifies an entry file against its embedded key and
// digest and returns the payload.
func decodeEntry(k Key, data []byte) ([]byte, error) {
	rest, ok := bytes.CutPrefix(data, []byte(magicPrefix))
	if !ok {
		return nil, fmt.Errorf("bad magic")
	}
	keyLine, rest, ok := bytes.Cut(rest, []byte("\n"))
	if !ok || string(keyLine) != "key "+k.String() {
		return nil, fmt.Errorf("key mismatch")
	}
	sumLine, payload, ok := bytes.Cut(rest, []byte("\n"))
	if !ok {
		return nil, fmt.Errorf("truncated header")
	}
	var wantSum string
	var wantLen int
	if _, err := fmt.Sscanf(string(sumLine), "sha256 %64s len %d", &wantSum, &wantLen); err != nil {
		return nil, fmt.Errorf("bad digest line: %w", err)
	}
	if len(payload) != wantLen {
		return nil, fmt.Errorf("payload length %d, want %d", len(payload), wantLen)
	}
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != wantSum {
		return nil, fmt.Errorf("payload digest mismatch")
	}
	return payload, nil
}

// Put stores payload under k. Errors are counted and returned; callers
// treat a failed put as "run stays uncached", never as a run failure. A
// full disk (ENOSPC) is absorbed entirely — counted, sweep triggered,
// nil returned — because it is an expected operating condition, not an
// anomaly worth surfacing per put.
func (c *Cache) Put(k Key, payload []byte) error {
	err := c.put(k, payload)
	if err != nil {
		if errors.Is(err, syscall.ENOSPC) {
			c.faults.Recovered(FaultPutENOSPC)
			c.enospc.Add(1)
			c.obsENOSPC.Add(1)
			c.sweepLRU()
			return nil
		}
		c.faults.Recovered(FaultPutRename)
		c.putErrors.Add(1)
		c.obsPutErrors.Add(1)
		return err
	}
	c.puts.Add(1)
	c.obsPuts.Add(1)
	if c.opts.MaxBytes > 0 && c.size.Load() > c.opts.MaxBytes {
		c.sweepLRU()
	}
	return nil
}

func (c *Cache) put(k Key, payload []byte) error {
	path := c.path(k)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("runcache: %w", err)
	}
	sum := sha256.Sum256(payload)
	var buf bytes.Buffer
	buf.Grow(len(magicPrefix) + 2*sha256.Size + len(payload) + 96)
	buf.WriteString(magicPrefix)
	fmt.Fprintf(&buf, "key %s\n", k)
	fmt.Fprintf(&buf, "sha256 %s len %d\n", hex.EncodeToString(sum[:]), len(payload))
	buf.Write(payload)
	entry := buf.Bytes()
	if c.faults.Should(FaultPutTorn) {
		// A torn write: half the entry lands and the writer believes the
		// put succeeded. The next Get finds the truncation, counts a
		// corrupt miss, and recomputes.
		entry = entry[:len(entry)/2]
	}
	if c.faults.Should(FaultPutENOSPC) {
		return fmt.Errorf("runcache: %w", syscall.ENOSPC)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), tempPattern(k))
	if err != nil {
		return fmt.Errorf("runcache: %w", err)
	}
	if _, err := tmp.Write(entry); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("runcache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("runcache: %w", err)
	}
	if c.faults.Should(FaultPutRename) {
		os.Remove(tmp.Name())
		return fmt.Errorf("runcache: injected rename failure")
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("runcache: %w", err)
	}
	if c.opts.MaxBytes > 0 {
		c.size.Add(int64(len(entry)))
	}
	return nil
}

// sweepTarget is the fraction of MaxBytes the LRU sweep drains to, so
// one sweep buys headroom instead of evicting a single entry per put.
const sweepTarget = 0.9

// sweepLRU removes entries in oldest-read order (mtime, refreshed on
// hit) until usage drops under sweepTarget of MaxBytes. With no
// MaxBytes configured (ENOSPC on an unbounded cache) it evicts down to
// sweepTarget of current usage to free some space. One sweep runs at a
// time; concurrent triggers return immediately.
func (c *Cache) sweepLRU() {
	if !c.sweepMu.TryLock() {
		return
	}
	defer c.sweepMu.Unlock()
	type entry struct {
		path  string
		size  int64
		mtime time.Time
	}
	var entries []entry
	var total int64
	filepath.WalkDir(c.dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".rc") {
			return nil
		}
		if info, err := d.Info(); err == nil {
			entries = append(entries, entry{path, info.Size(), info.ModTime()})
			total += info.Size()
		}
		return nil
	})
	budget := c.opts.MaxBytes
	if budget <= 0 {
		budget = total
	}
	target := int64(float64(budget) * sweepTarget)
	if total <= target {
		if c.opts.MaxBytes > 0 {
			c.size.Store(total)
		}
		return
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].mtime.Before(entries[j].mtime) })
	for _, e := range entries {
		if total <= target {
			break
		}
		if os.Remove(e.path) == nil {
			total -= e.size
			c.evictions.Add(1)
			c.obsEvictions.Add(1)
		}
	}
	if c.opts.MaxBytes > 0 {
		c.size.Store(total)
	}
}

// Len walks the cache directory and returns the number of entry files
// (diagnostics; not on any hot path).
func (c *Cache) Len() int {
	n := 0
	filepath.WalkDir(c.dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".rc") {
			n++
		}
		return nil
	})
	return n
}

// WriteFileAtomic writes data to path via a PID-tagged temp file in the
// same directory and an atomic rename, so readers never observe a
// partial file and crash droppings are attributable to their writer.
// Shared with the simd daemon's job-spec persistence.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp."+strconv.Itoa(os.Getpid())+"-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}
