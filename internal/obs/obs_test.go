package obs

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Add(5)
	if c.Value() != 0 {
		t.Fatalf("nil counter Value = %d, want 0", c.Value())
	}
	h := r.Histogram("h", []int64{1, 2})
	h.Observe(1)
	if h.Counts() != nil || h.Total() != 0 {
		t.Fatalf("nil histogram not inert: counts=%v total=%d", h.Counts(), h.Total())
	}
	rec := r.Recorder("s")
	rec.Emit(0, "k", "d")
	if rec.Emitted() != 0 || rec.Events() != nil {
		t.Fatalf("nil recorder not inert")
	}
	if got := r.Snapshot(); len(got.Names) != 0 {
		t.Fatalf("nil registry snapshot has names: %v", got.Names)
	}
	if got := r.Trace(); got != nil {
		t.Fatalf("nil registry trace = %v, want nil", got)
	}
}

func TestCounterAndHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("acts")
	c.Add(3)
	c.Add(4)
	if c.Value() != 7 {
		t.Fatalf("counter = %d, want 7", c.Value())
	}
	if r.Counter("acts") != c {
		t.Fatalf("Counter not idempotent")
	}

	h := r.Histogram("qdepth", []int64{4, 1, 16}) // unsorted on purpose
	for _, v := range []int64{0, 1, 2, 5, 100} {
		h.Observe(v)
	}
	wantBounds := []int64{1, 4, 16}
	gotBounds := h.Bounds()
	for i := range wantBounds {
		if gotBounds[i] != wantBounds[i] {
			t.Fatalf("bounds = %v, want %v", gotBounds, wantBounds)
		}
	}
	// 0,1 -> <=1; 2 -> <=4; 5 -> <=16; 100 -> overflow
	want := []uint64{2, 1, 1, 1}
	got := h.Counts()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("counts = %v, want %v", got, want)
		}
	}
	if h.Total() != 5 {
		t.Fatalf("total = %d, want 5", h.Total())
	}
}

func TestCounterConcurrentAddsDeterministicTotal(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("shared")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Add(1)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
}

// TestMoveCarriesTheCount: Move rebinds a handle to the named counter,
// which gains the handle's count; moving onto the counter the handle
// already is, or into a nil registry, changes nothing.
func TestMoveCarriesTheCount(t *testing.T) {
	own, exported := NewRegistry(), NewRegistry()
	h := own.Counter("hits")
	h.Add(3)
	exported.Counter("x/hits").Add(1)
	exported.Move(&h, "x/hits")
	h.Add(1)
	exported.Move(&h, "x/hits")
	var nilReg *Registry
	nilReg.Move(&h, "x/hits")
	if h != exported.Counter("x/hits") || h.Value() != 5 || own.Counter("hits").Value() != 3 {
		t.Fatalf("after Move: handle %d (exported %v), own counter %d; want 5 on the exported counter, own 3",
			h.Value(), h == exported.Counter("x/hits"), own.Counter("hits").Value())
	}
	var fresh *Counter
	exported.Move(&fresh, "y")
	if fresh == nil || fresh.Value() != 0 {
		t.Fatalf("moving a nil handle: %v", fresh)
	}
}

func TestRecorderRingBounded(t *testing.T) {
	r := NewRegistry()
	rec := r.Recorder("chan0")
	for i := 0; i < DefaultTraceCap+6; i++ {
		rec.Emit(int64(i*100), "tick", "")
	}
	if rec.Emitted() != DefaultTraceCap+6 {
		t.Fatalf("emitted = %d, want %d", rec.Emitted(), DefaultTraceCap+6)
	}
	if rec.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", rec.Dropped())
	}
	evs := rec.Events()
	if len(evs) != DefaultTraceCap {
		t.Fatalf("retained = %d, want %d", len(evs), DefaultTraceCap)
	}
	for i, ev := range evs {
		wantSeq := uint64(6 + i)
		if ev.Seq != wantSeq {
			t.Fatalf("event %d seq = %d, want %d (events=%v)", i, ev.Seq, wantSeq, evs)
		}
		if ev.TimePS != int64(wantSeq)*100 {
			t.Fatalf("event %d time = %d, want %d", i, ev.TimePS, int64(wantSeq)*100)
		}
	}
}

func TestMetricsJSONSortedAndStable(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		r.Counter("zeta").Add(2)
		r.Counter("alpha").Add(1)
		h := r.Histogram("mid", []int64{10, 20})
		h.Observe(5)
		h.Observe(15)
		h.Observe(25)
		return r
	}
	var a, b bytes.Buffer
	if err := build().WriteMetricsJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteMetricsJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("metrics JSON not byte-stable:\n%s\nvs\n%s", a.String(), b.String())
	}
	s := a.String()
	if strings.Index(s, `"alpha"`) > strings.Index(s, `"zeta"`) {
		t.Fatalf("counter keys not sorted:\n%s", s)
	}
	for _, want := range []string{`"alpha": 1`, `"zeta": 2`, `"bounds": [10, 20]`, `"counts": [1, 1, 1]`} {
		if !strings.Contains(s, want) {
			t.Fatalf("metrics JSON missing %q:\n%s", want, s)
		}
	}
}

// TestMetricsGobDeterministic pins that a snapshot gob-encodes to one
// byte string: a checked cell's stored payload carries one, and the
// store maps each key to one entry. Plain gob would write the Counters
// and Hists maps in iteration order.
func TestMetricsGobDeterministic(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 12; i++ {
		r.Counter(fmt.Sprintf("chan%d/cmd/ACT", i)).Add(uint64(i*7 + 1))
	}
	for i := 0; i < 6; i++ {
		r.Histogram(fmt.Sprintf("chan%d/readq_depth", i), []int64{0, 4, 16}).Observe(int64(i * 5))
	}
	m := r.Snapshot()
	var first []byte
	for i := 0; i < 20; i++ {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(m); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = buf.Bytes()
		} else if !bytes.Equal(buf.Bytes(), first) {
			t.Fatalf("encoding %d differs from the first", i)
		}
	}
	var back Metrics
	if err := gob.NewDecoder(bytes.NewReader(first)).Decode(&back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, m) {
		t.Errorf("round trip changed the snapshot:\n got %+v\nwant %+v", back, m)
	}
}

func TestTraceJSONLSortedBySourceSeq(t *testing.T) {
	r := NewRegistry()
	b := r.Recorder("bravo")
	a := r.Recorder("alpha")
	b.Emit(10, "k", "b0")
	a.Emit(5, "k", "a0")
	b.Emit(20, "k", "b1")
	a.Emit(7, "k", "a1")

	var out bytes.Buffer
	if err := r.WriteTraceJSONL(&out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d, want 4:\n%s", len(lines), out.String())
	}
	wantOrder := []string{`"a0"`, `"a1"`, `"b0"`, `"b1"`}
	for i, want := range wantOrder {
		if !strings.Contains(lines[i], want) {
			t.Fatalf("line %d = %q, want detail %s", i, lines[i], want)
		}
	}
}

// TestMergeMatchesDirectReporting: runs that each report to a registry
// of their own and are merged in order leave the registry that they
// would have left by reporting to it directly: the same metrics JSON,
// trace JSONL, Emitted and Dropped. The runs cover a source above
// DefaultTraceCap, a source two runs share whose sum passes the cap, a
// source that already holds events reported directly, and a small one.
func TestMergeMatchesDirectReporting(t *testing.T) {
	emit := func(r *Registry, source string, run, n int) {
		rec := r.Recorder(source)
		for i := 0; i < n; i++ {
			rec.Emit(int64(1000*run+i), "k", fmt.Sprintf("run%d/%d", run, i))
		}
	}
	runs := []func(r *Registry){
		func(r *Registry) {
			emit(r, "shared", 0, 700)
			r.Counter("acts").Add(3)
			r.Counter("idle")
			r.Histogram("qdepth", []int64{1, 4}).Observe(2)
		},
		func(r *Registry) {
			emit(r, "shared", 1, 1500)
			emit(r, "live", 1, 10)
			r.Counter("acts").Add(4)
			r.Histogram("qdepth", []int64{1, 4}).Observe(9)
		},
		func(r *Registry) { emit(r, "big", 2, 2000) },
	}
	direct, merged := NewRegistry(), NewRegistry()
	for _, r := range []*Registry{direct, merged} {
		emit(r, "live", 9, 5)
		r.Counter("acts").Add(1)
	}
	for _, run := range runs {
		run(direct)
		own := NewRegistry()
		run(own)
		merged.Merge(own.Snapshot(), own.Trace())
	}

	var dm, mm, dt, mt bytes.Buffer
	for _, w := range []struct {
		r           *Registry
		metrics, tr *bytes.Buffer
	}{{direct, &dm, &dt}, {merged, &mm, &mt}} {
		if err := w.r.WriteMetricsJSON(w.metrics); err != nil {
			t.Fatal(err)
		}
		if err := w.r.WriteTraceJSONL(w.tr); err != nil {
			t.Fatal(err)
		}
	}
	if dm.String() != mm.String() {
		t.Errorf("merged metrics differ:\n%s\nwant:\n%s", mm.String(), dm.String())
	}
	if dt.String() != mt.String() {
		t.Error("merged trace differs from direct reporting")
	}
	for _, source := range []string{"shared", "live", "big"} {
		d, m := direct.Recorder(source), merged.Recorder(source)
		if d.Emitted() != m.Emitted() || d.Dropped() != m.Dropped() {
			t.Errorf("%s: merged emitted %d dropped %d, direct %d and %d",
				source, m.Emitted(), m.Dropped(), d.Emitted(), d.Dropped())
		}
	}
	if d := direct.Recorder("shared").Dropped(); d == 0 {
		t.Error("no source passed the trace capacity")
	}
}

func TestCheckerRecordsViolations(t *testing.T) {
	c := NewChecker("unit")
	c.Check(true, "always-ok", "unused %d", 1)
	c.CheckEq(3, 3, "eq-ok")
	c.CheckEq(3, 4, "eq-bad")
	c.Check(false, "pred-bad", "x=%d", 9)
	vs := c.Violations()
	if len(vs) != 2 {
		t.Fatalf("violations = %v, want 2", vs)
	}
	if vs[0].Name != "eq-bad" || vs[0].Detail != "got 3, want 4" {
		t.Fatalf("violation 0 = %+v", vs[0])
	}
	if got := vs[1].String(); got != "unit: pred-bad: x=9" {
		t.Fatalf("String = %q", got)
	}

	var nilC *Checker
	nilC.Check(false, "ignored", "")
	if nilC.Violations() != nil {
		t.Fatalf("nil checker recorded violations")
	}
}

func TestSortViolations(t *testing.T) {
	vs := []Violation{
		{Source: "b", Name: "n", Detail: "d"},
		{Source: "a", Name: "z", Detail: "d"},
		{Source: "a", Name: "a", Detail: "2"},
		{Source: "a", Name: "a", Detail: "1"},
	}
	SortViolations(vs)
	want := []Violation{
		{Source: "a", Name: "a", Detail: "1"},
		{Source: "a", Name: "a", Detail: "2"},
		{Source: "a", Name: "z", Detail: "d"},
		{Source: "b", Name: "n", Detail: "d"},
	}
	for i := range want {
		if vs[i] != want[i] {
			t.Fatalf("sorted[%d] = %+v, want %+v", i, vs[i], want[i])
		}
	}
}
