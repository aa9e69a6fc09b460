package cpu

import (
	"fmt"
	"math"

	"repro/internal/blocktab"
	"repro/internal/cache"
	"repro/internal/workload"
)

// A core's private front end — its event stream, L1 and L2, the L1 stride
// and next-line prefetchers, the L2 stride prefetcher and the next-line
// usefulness bookkeeping — depends only on its own event stream, never on
// the shared LLC or memory. A Recorder runs that front end once and
// writes, per event, a compact Record plus the ordered ops that touch
// shared state; Core.Replay then plays them against any LLC and memory
// system. Every memory design of one (hierarchy, benchmark, seed) cell
// replays the same recording, so the front end is simulated once instead
// of once per design.

// Record is one event as the private front end resolved it: 8 bytes.
type Record struct {
	kind  uint8  // workload.EventKind
	flags uint8  // level the demand was served from | flagDependent
	nops  uint16 // shared-state ops this event emitted
	val   uint32 // Compute: instructions; Comm: duration in ps
}

// Demand outcome levels (Record.flags & levelMask).
const (
	levelL1       = iota // L1 hit: no shared work, no time
	levelL2              // L1 miss, L2 hit
	levelLLC             // L2 miss: the demand took an LLC step
	levelMask     = 3
	flagDependent = 1 << 2
)

// Op encoding: block<<opKindBits | kind in 4 bytes, so op blocks must
// stay below opBlockLimit (addresses below 64GB); one record holds at
// most recordOpsLimit ops.
const (
	opKindBits     = 2
	opKindMask     = 1<<opKindBits - 1
	opBlockLimit   = 1 << (32 - opKindBits)
	recordOpsLimit = math.MaxUint16
)

// Op kinds. A record's ops replay in recorded order.
const (
	// opPrefetch is a prefetch candidate that missed the private levels:
	// probe the LLC and, on a miss, fetch from memory and fill the LLC.
	opPrefetch = iota
	// opWriteback is a dirty L2 victim written into the LLC.
	opWriteback
	// opDemand is the demand's own LLC step (it marks the position of
	// that step among the event's other ops).
	opDemand
)

// Trace is one core's recorded front end.
type Trace struct {
	recs []Record
	ops  []uint32
}

// Reset empties the trace, keeping its storage.
func (t *Trace) Reset() {
	t.recs = t.recs[:0]
	t.ops = t.ops[:0]
}

// Clone returns a copy of t sized to its contents, so a trace recorded
// into a buffer reused across cores keeps no spare capacity.
func (t *Trace) Clone() Trace {
	c := Trace{recs: make([]Record, len(t.recs)), ops: make([]uint32, len(t.ops))}
	copy(c.recs, t.recs)
	copy(c.ops, t.ops)
	return c
}

// Reader walks a Trace one event at a time.
type Reader struct {
	t       *Trace
	rec, op int
}

// Reader returns a reader positioned at the trace's first event. Readers
// only read the trace, so any number may walk it concurrently.
func (t *Trace) Reader() Reader { return Reader{t: t} }

// Next returns the next event and its ops, or ok=false at the end.
func (r *Reader) Next() (rec Record, ops []uint32, ok bool) {
	if r.rec == len(r.t.recs) {
		return Record{}, nil, false
	}
	rec = r.t.recs[r.rec]
	end := r.op + int(rec.nops)
	ops = r.t.ops[r.op:end]
	r.rec++
	r.op = end
	return rec, ops, true
}

// nlIssuedMax bounds the next-line predictions awaiting usefulness
// feedback; the table holding them is sized for exactly that many.
const nlIssuedMax = 4096

// Recorder runs one core's private front end and records its outcomes.
// The zero Recorder is ready once Reset gives it its private levels.
type Recorder struct {
	l1, l2   *cache.Cache
	strideL1 *cache.StridePrefetcher
	nextL1   *cache.NextLinePrefetcher
	strideL2 *cache.StridePrefetcher
	nl       *blocktab.Table // next-line predictions awaiting usefulness feedback
	predBuf  []uint64        // prefetch-prediction scratch, reused every miss
	tr       *Trace          // the trace the current event records into
}

// Reset readies the recorder for another core with fresh private levels
// l1 and l2, keeping its scratch storage.
func (r *Recorder) Reset(l1, l2 *cache.Cache) {
	r.l1, r.l2 = l1, l2
	r.strideL1 = cache.NewStridePrefetcher(2)
	r.nextL1 = cache.NewNextLinePrefetcher(256, 0.25)
	r.strideL2 = cache.NewStridePrefetcher(4)
	if r.nl == nil {
		r.nl = blocktab.New(nlIssuedMax)
	} else {
		r.nl.Reset()
	}
	r.tr = nil
}

// Record runs one event through the private levels and appends its record
// and shared-state ops to tr.
func (r *Recorder) Record(ev workload.Event, tr *Trace) {
	r.tr = tr
	start := len(tr.ops)
	rec := Record{kind: uint8(ev.Kind)}
	switch ev.Kind {
	case workload.Compute:
		rec.val = val32(ev.Instr)
	case workload.Comm:
		rec.val = val32(ev.DurationPS)
	case workload.Read:
		rec.flags = r.read(ev.Addr, ev.Stream)
		if ev.Dependent {
			rec.flags |= flagDependent
		}
	case workload.Write:
		rec.flags = r.write(ev.Addr)
	}
	n := len(tr.ops) - start
	if n > recordOpsLimit {
		panic(fmt.Sprintf("cpu: event emitted %d ops, record holds %d", n, recordOpsLimit))
	}
	rec.nops = uint16(n)
	tr.recs = append(tr.recs, rec)
}

// val32 narrows a record value, panicking when it does not fit.
func val32(v int64) uint32 {
	if v < 0 || v > math.MaxUint32 {
		panic(fmt.Sprintf("cpu: record value %d outside [0, 2^32)", v))
	}
	return uint32(v)
}

// op appends a shared-state op on addr's block.
func (r *Recorder) op(kind uint32, addr uint64) {
	block := addr / 64
	if block >= opBlockLimit {
		panic(fmt.Sprintf("cpu: address %#x beyond the %d-block op range", addr, uint64(opBlockLimit)))
	}
	r.tr.ops = append(r.tr.ops, uint32(block)<<opKindBits|kind)
}

// creditNextLine feeds usefulness back to the next-line prefetcher when a
// demand touches a block it predicted. Once the prefetcher has turned
// itself off it never turns back on and never reads its usefulness
// again, so the bookkeeping stops with it.
func (r *Recorder) creditNextLine(addr uint64) {
	if block := addr / 64; r.nextL1.Enabled() && r.nl.Count(block) != 0 {
		r.nl.Dec(block)
		r.nextL1.CreditUseful()
	}
}

// predictNextLine records a next-line prediction as awaiting usefulness
// feedback, unless it already awaits it or nlIssuedMax predictions do;
// like crediting, it stops once the prefetcher has turned itself off.
func (r *Recorder) predictNextLine(block uint64) {
	if r.nextL1.Enabled() && r.nl.Len() < nlIssuedMax && r.nl.Count(block) == 0 {
		r.nl.Inc(block)
	}
}

// read services a demand load through the private levels and returns the
// level that served it.
func (r *Recorder) read(addr uint64, stream int) uint8 {
	r.creditNextLine(addr)
	if r.l1.Access(addr, false) {
		return levelL1
	}
	r.prefetchL1(addr, stream)
	if r.l2.Access(addr, false) {
		r.fill(r.l1, addr, false)
		return levelL2
	}
	r.prefetchL2(addr, stream)
	r.op(opDemand, addr)
	r.fill(r.l2, addr, false)
	r.fill(r.l1, addr, false)
	return levelLLC
}

// write services a store (write-allocate: a miss fetches the block, the
// line becomes dirty, and dirtiness flows down on eviction). Stores do
// not train the prefetchers.
func (r *Recorder) write(addr uint64) uint8 {
	r.creditNextLine(addr)
	if r.l1.Access(addr, true) {
		return levelL1
	}
	if r.l2.Access(addr, true) {
		r.fill(r.l1, addr, true)
		return levelL2
	}
	r.op(opDemand, addr)
	r.fill(r.l2, addr, true)
	r.fill(r.l1, addr, true)
	return levelLLC
}

// fill inserts a block into a private level; a dirty L1 victim folds into
// L2, and a dirty L2 victim becomes a writeback op toward the LLC.
func (r *Recorder) fill(level *cache.Cache, addr uint64, write bool) {
	victim, dirty := level.Fill(addr, write, false)
	if !dirty {
		return
	}
	if level == r.l1 {
		if !r.l2.Access(victim, true) {
			r.fill(r.l2, victim, true)
		}
		return
	}
	r.op(opWriteback, victim)
}

// prefetchL1 runs the L1 prefetchers (stride degree 2 plus next-line with
// auto turn-off) on an L1 demand miss, filling into L1. A candidate that
// also misses L2 is pulled from below silently (latency hidden, traffic
// charged when it reaches memory): that part is an op.
func (r *Recorder) prefetchL1(addr uint64, stream int) {
	block := addr / 64
	preds := r.predBuf[:0]
	if stream != 0 {
		preds = r.strideL1.AppendObserve(preds, stream, block)
	}
	preds = r.nextL1.AppendObserve(preds, block)
	r.predBuf = preds
	for _, pb := range preds {
		pa := pb * 64
		if r.l1.Lookup(pa) {
			continue
		}
		if !r.l2.Lookup(pa) {
			r.op(opPrefetch, pa)
		}
		r.fill(r.l1, pa, false)
		if pb == block+1 {
			r.predictNextLine(pb)
		}
	}
}

// prefetchL2 runs the L2 stride prefetcher (degree 4) on an L2 miss,
// filling into L2; the LLC side of each candidate is an op.
func (r *Recorder) prefetchL2(addr uint64, stream int) {
	if stream == 0 {
		return
	}
	r.predBuf = r.strideL2.AppendObserve(r.predBuf[:0], stream, addr/64)
	for _, pb := range r.predBuf {
		pa := pb * 64
		if r.l2.Lookup(pa) {
			continue
		}
		r.op(opPrefetch, pa)
		r.fill(r.l2, pa, false)
	}
}
