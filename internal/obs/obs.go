// Package obs is the simulator's observability layer: a deterministic
// counter/histogram registry, a flight-recorder event trace, and the
// conservation-violation type every package's invariant checker reports.
//
// Design constraints, in priority order:
//
//  1. Instrumentation must never perturb simulation results. Counters and
//     events are recorded out-of-band; no simulated time, scheduling
//     decision, or random draw depends on them.
//  2. Exports must be byte-identical for every worker count. Counter and
//     histogram updates are commutative atomic adds (totals are
//     order-independent), metric export iterates sorted names, and trace
//     events carry a per-source sequence number so the JSONL export can
//     sort by (source, seq) regardless of goroutine interleaving.
//  3. A nil registry is a no-op. Every instrumented package accepts a nil
//     *Registry (or the nil *Counter/*Histogram/*Recorder handles it
//     vends) so the uninstrumented hot path stays allocation-free.
package obs

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64 metric. Adds are atomic so
// channels running on different workers may share one counter; the total
// is order-independent and therefore deterministic.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by d. Safe on a nil receiver (no-op).
func (c *Counter) Add(d uint64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Value returns the current total. Zero on a nil receiver.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Histogram counts observations into fixed buckets: bucket i holds values
// v <= Bounds[i] (the first matching bound), with one implicit overflow
// bucket for values above the last bound. Bounds are fixed at creation so
// concurrent observers agree on the shape; bucket adds are atomic.
type Histogram struct {
	bounds []int64
	counts []atomic.Uint64
}

// Observe records one value. Safe on a nil receiver (no-op).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i].Add(1)
			return
		}
	}
	h.counts[len(h.bounds)].Add(1)
}

// Bounds returns the bucket upper bounds (the overflow bucket is implicit).
func (h *Histogram) Bounds() []int64 {
	if h == nil {
		return nil
	}
	return append([]int64(nil), h.bounds...)
}

// Counts returns the per-bucket totals, overflow bucket last. Nil on a nil
// receiver.
func (h *Histogram) Counts() []uint64 {
	if h == nil {
		return nil
	}
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Total returns the number of observations.
func (h *Histogram) Total() uint64 {
	var t uint64
	for _, c := range h.Counts() {
		t += c
	}
	return t
}

// Registry holds named counters, histograms, and per-source event
// recorders. The zero value is not usable; use NewRegistry. A nil
// *Registry is a valid no-op sink: Counter/Histogram/Recorder return nil
// handles whose methods do nothing.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	hists    map[string]*Histogram
	recs     map[string]*Recorder
}

// DefaultTraceCap bounds each source's event ring (see Recorder).
const DefaultTraceCap = 1024

// NewRegistry returns an empty registry whose recorders keep up to
// DefaultTraceCap events per source.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
		recs:     make(map[string]*Recorder),
	}
}

// Counter returns the named counter, creating it on first use. Nil on a
// nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = new(Counter)
		r.counters[name] = c
	}
	return c
}

// Move rebinds the counter handle *h to the named counter, which gains
// the count *h held so far, so a component can count in a registry of
// its own and export to r later. No-op on a nil registry or when *h
// already is that counter.
func (r *Registry) Move(h **Counter, name string) {
	if r == nil {
		return
	}
	if next := r.Counter(name); next != *h {
		next.Add((*h).Value())
		*h = next
	}
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use. Later calls with different bounds return
// the existing histogram (the first registration wins). Nil on a nil
// registry.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		sorted := append([]int64(nil), bounds...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		h = &Histogram{bounds: sorted, counts: make([]atomic.Uint64, len(sorted)+1)}
		r.hists[name] = h
	}
	return h
}

// Recorder returns the flight recorder for a source, creating it on first
// use. Each simulated component (a memory channel, a scheduler) should use
// its own unique source name: events within one source are ordered by its
// single-threaded writer, so the export is deterministic. Nil on a nil
// registry.
func (r *Registry) Recorder(source string) *Recorder {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	rec, ok := r.recs[source]
	if !ok {
		rec = &Recorder{source: source}
		r.recs[source] = rec
	}
	return rec
}

// Metrics returns a stable snapshot: counter values and histogram bucket
// totals keyed by name, in sorted order.
type Metrics struct {
	Names    []string // sorted union of counter and histogram names
	Counters map[string]uint64
	Hists    map[string]HistSnapshot
}

// HistSnapshot is one histogram's exported shape.
type HistSnapshot struct {
	Bounds []int64
	Counts []uint64
}

// Snapshot captures every counter and histogram. Empty on a nil registry.
func (r *Registry) Snapshot() Metrics {
	m := Metrics{Counters: map[string]uint64{}, Hists: map[string]HistSnapshot{}}
	if r == nil {
		return m
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m.Names = append(sortedKeys(r.counters), sortedKeys(r.hists)...)
	sort.Strings(m.Names)
	for _, name := range m.Names {
		if c, ok := r.counters[name]; ok {
			m.Counters[name] = c.Value()
		}
		if h, ok := r.hists[name]; ok {
			m.Hists[name] = HistSnapshot{Bounds: h.Bounds(), Counts: h.Counts()}
		}
	}
	return m
}

// metricsWire is Metrics as GobEncode writes it: counters and
// histograms as name-sorted slices, because gob writes a map in its
// iteration order and a stored snapshot must be one byte string.
type metricsWire struct {
	Counters []namedCounter
	Hists    []namedHist
}

type namedCounter struct {
	Name  string
	Value uint64
}

type namedHist struct {
	Name string
	Hist HistSnapshot
}

// GobEncode encodes m deterministically: equal snapshots give equal bytes.
func (m Metrics) GobEncode() ([]byte, error) {
	var w metricsWire
	for _, name := range sortedKeys(m.Counters) {
		w.Counters = append(w.Counters, namedCounter{name, m.Counters[name]})
	}
	for _, name := range sortedKeys(m.Hists) {
		w.Hists = append(w.Hists, namedHist{name, m.Hists[name]})
	}
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(w)
	return buf.Bytes(), err
}

// GobDecode is GobEncode's inverse; it rebuilds Names as Snapshot does.
func (m *Metrics) GobDecode(b []byte) error {
	var w metricsWire
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&w); err != nil {
		return err
	}
	*m = Metrics{Counters: map[string]uint64{}, Hists: map[string]HistSnapshot{}}
	for _, c := range w.Counters {
		m.Counters[c.Name] = c.Value
	}
	for _, h := range w.Hists {
		m.Hists[h.Name] = h.Hist
	}
	m.Names = append(sortedKeys(m.Counters), sortedKeys(m.Hists)...)
	sort.Strings(m.Names)
	return nil
}

// sortedKeys returns m's keys in sorted order (nil for an empty map).
func sortedKeys[V any](m map[string]V) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Merge adds another registry's Snapshot and Trace as if its run had
// reported here: counters and histogram buckets add, and each event joins
// its source's recorder numbered after the events already there, so
// numbering, ring eviction, Emitted and Dropped match direct reporting.
// Nil-safe.
func (r *Registry) Merge(m Metrics, events []Event) {
	if r == nil {
		return
	}
	for _, name := range m.Names {
		if v, ok := m.Counters[name]; ok {
			r.Counter(name).Add(v)
		}
		if h, ok := m.Hists[name]; ok {
			dst := r.Histogram(name, h.Bounds)
			for i, c := range h.Counts {
				dst.counts[i].Add(c)
			}
		}
	}
	var rec *Recorder
	var base uint64
	for _, ev := range events {
		if rec == nil || ev.Source != rec.source { // Trace groups a source's events
			rec = r.Recorder(ev.Source)
			base = rec.seq
		}
		ev.Seq += base
		rec.push(ev)
	}
}

// WriteMetricsJSON writes the snapshot as one JSON object with sorted
// keys, hand-rendered so the byte output is stable across Go versions:
//
//	{"counters":{"a":1,...},"histograms":{"h":{"bounds":[...],"counts":[...]},...}}
func (r *Registry) WriteMetricsJSON(w io.Writer) error {
	m := r.Snapshot()
	var b strings.Builder
	b.WriteString("{\n  \"counters\": {")
	first := true
	for _, name := range m.Names {
		v, ok := m.Counters[name]
		if !ok {
			continue
		}
		if !first {
			b.WriteString(",")
		}
		first = false
		fmt.Fprintf(&b, "\n    %q: %d", name, v)
	}
	b.WriteString("\n  },\n  \"histograms\": {")
	first = true
	for _, name := range m.Names {
		h, ok := m.Hists[name]
		if !ok {
			continue
		}
		if !first {
			b.WriteString(",")
		}
		first = false
		fmt.Fprintf(&b, "\n    %q: {\"bounds\": %s, \"counts\": %s}",
			name, jsonInts(h.Bounds), jsonUints(h.Counts))
	}
	b.WriteString("\n  }\n}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

func jsonInts(xs []int64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%d", x)
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

func jsonUints(xs []uint64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%d", x)
	}
	return "[" + strings.Join(parts, ", ") + "]"
}
