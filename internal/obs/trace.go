package obs

import (
	"fmt"
	"io"
	"sort"
)

// Event is one flight-recorder entry: a simulated-time-stamped occurrence
// within a single source (mode switch, frequency switch, epoch trip, ...).
// Seq is the source-local sequence number, assigned in emission order by
// the source's single writer.
type Event struct {
	Source string
	Seq    uint64
	TimePS int64
	Kind   string
	Detail string
}

// Recorder is a bounded ring buffer of Events for one source. It is NOT
// safe for concurrent writers — each simulated component owns its
// recorder exclusively (the experiment engine runs each cell of a plan
// once, on one goroutine, and scopes its sources by cell), which is also
// what makes the exported trace deterministic.
type Recorder struct {
	source  string
	seq     uint64
	dropped uint64
	events  []Event
	next    int // ring cursor, valid once len(events) == DefaultTraceCap
}

// Emit appends an event, evicting the oldest if the ring is full. Safe on
// a nil receiver (no-op).
func (r *Recorder) Emit(timePS int64, kind, detail string) {
	if r == nil {
		return
	}
	r.push(Event{Source: r.source, Seq: r.seq, TimePS: timePS, Kind: kind, Detail: detail})
}

// push appends ev, evicting the oldest event once the ring is full; seqs
// it skips count as emitted and dropped (a merged run's ring evicted them).
func (r *Recorder) push(ev Event) {
	r.dropped += ev.Seq - r.seq
	r.seq = ev.Seq + 1
	if len(r.events) < DefaultTraceCap {
		r.events = append(r.events, ev)
		return
	}
	r.events[r.next] = ev
	r.next = (r.next + 1) % DefaultTraceCap
	r.dropped++
}

// Emitted returns the total number of events ever emitted (including
// dropped ones).
func (r *Recorder) Emitted() uint64 {
	if r == nil {
		return 0
	}
	return r.seq
}

// Dropped returns how many events the ring evicted.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.dropped
}

// Events returns the retained events in sequence order.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	out := append([]Event(nil), r.events...)
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Trace returns every retained event across all sources, sorted by
// (source, seq). Empty on a nil registry.
func (r *Registry) Trace() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.recs))
	for name := range r.recs {
		names = append(names, name)
	}
	sort.Strings(names)
	recs := make([]*Recorder, len(names))
	for i, name := range names {
		recs[i] = r.recs[name]
	}
	r.mu.Unlock()
	var out []Event
	for _, rec := range recs {
		out = append(out, rec.Events()...)
	}
	return out
}

// WriteTraceJSONL writes one JSON object per line, sorted by
// (source, seq), hand-rendered for byte stability:
//
//	{"source":"chan0","seq":3,"time_ps":812000,"kind":"mode","detail":"enter-write"}
func (r *Registry) WriteTraceJSONL(w io.Writer) error {
	for _, ev := range r.Trace() {
		line := fmt.Sprintf("{\"source\": %q, \"seq\": %d, \"time_ps\": %d, \"kind\": %q, \"detail\": %q}\n",
			ev.Source, ev.Seq, ev.TimePS, ev.Kind, ev.Detail)
		if _, err := io.WriteString(w, line); err != nil {
			return err
		}
	}
	return nil
}
