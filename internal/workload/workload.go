// Package workload provides synthetic trace generators standing in for
// the six HPC benchmark suites the paper evaluates (Linpack, HPCG,
// Graph500, CORAL2, LULESH, NPB — §II-B). Real benchmark binaries cannot
// run inside this simulator, so each benchmark is modelled by a profile of
// the aggregate characteristics that determine its sensitivity to memory
// frequency/latency margins:
//
//   - memory accesses per kilo-instruction (intensity),
//   - write fraction (~15% on average, Fig 15),
//   - reuse (cache-hit) fraction and streaming vs random mix (row-buffer
//     locality and prefetch friendliness),
//   - dependent-load fraction and memory-level parallelism (latency vs
//     bandwidth sensitivity), and
//   - MPI communication share (~13% of core-hours under Hierarchy1),
//     which margin exploitation does not accelerate.
//
// The generator emits a deterministic event stream per (profile, seed):
// compute batches, reads, writes, and communication delays.
package workload

import (
	"errors"
	"fmt"
	"hash/fnv"

	"repro/internal/xrand"
)

// EventKind discriminates trace events.
type EventKind int

const (
	// Compute is a batch of non-memory instructions.
	Compute EventKind = iota
	// Read is a demand load.
	Read
	// Write is a store (write-allocate; dirtiness flows to memory via
	// cache eviction or cleaning).
	Write
	// Comm is MPI communication time that does not scale with memory
	// speed.
	Comm
)

// Event is one element of a core's trace.
type Event struct {
	Kind       EventKind
	Instr      int64  // Compute: instruction count
	Addr       uint64 // Read/Write: byte address
	Stream     int    // Read/Write: prefetcher stream id
	Dependent  bool   // Read: the core must stall until completion
	DurationPS int64  // Comm: wall-clock duration
}

// Profile characterizes one benchmark.
type Profile struct {
	Name  string
	Suite string

	AccessesPerKI  float64 // memory references per 1000 instructions reaching L1
	WriteFraction  float64 // stores / references
	ReuseFraction  float64 // probability a reference re-touches the hot set
	StreamFraction float64 // of non-reuse refs: sequential-stream share
	DependentFrac  float64 // of reads: pointer-chasing (stall) share
	MLP            int     // max outstanding misses the core sustains
	FootprintBytes uint64  // working-set size for random references
	Streams        int     // concurrent sequential streams
	// RunLength is the mean number of consecutive blocks a sequential
	// stream advances before the generator switches activity — the
	// spatial-locality run that gives streaming HPC codes their high
	// row-buffer hit rates. Zero defaults to 16 (one quarter of an 8KB
	// row).
	RunLength int
	// WarmFraction of references touch a per-core "warm" working set of
	// WarmSetBytes — the tier whose residence depends on how much LLC the
	// hierarchy gives each core. This is what differentiates Hierarchy1
	// (4.5MB/core) from Hierarchy2 (2.375MB/core): the warm set fits the
	// former's LLC share but spills to DRAM on the latter.
	WarmFraction float64
	WarmSetBytes uint64
	CommShare    float64 // target fraction of baseline core-hours in MPI
}

// Validate reports a nonsensical profile: a missing name or suite, a
// non-positive intensity, MLP or stream count, a fraction outside [0,1),
// or a footprint below 1MB.
func (p Profile) Validate() error {
	switch {
	case p.Name == "" || p.Suite == "":
		return errors.New("workload: profile missing name/suite")
	case p.AccessesPerKI <= 0 || p.MLP <= 0 || p.Streams <= 0:
		return fmt.Errorf("workload %s: non-positive intensity/MLP/streams", p.Name)
	case p.WriteFraction < 0 || p.WriteFraction >= 1:
		return fmt.Errorf("workload %s: bad write fraction", p.Name)
	case p.ReuseFraction < 0 || p.ReuseFraction >= 1:
		return fmt.Errorf("workload %s: bad reuse fraction", p.Name)
	case p.FootprintBytes < 1<<20:
		return fmt.Errorf("workload %s: footprint below 1MB", p.Name)
	case p.CommShare < 0 || p.CommShare >= 1:
		return fmt.Errorf("workload %s: bad comm share", p.Name)
	}
	return nil
}

// hotSetSize is the number of recently-touched blocks that model the
// cache-resident working set.
const hotSetSize = 512

// commChunkPS is the duration of one emitted communication event.
const commChunkPS = 2_000_000 // 2us

// baselineCPI is the rough cycles-per-instruction at spec used to convert
// CommShare into communication time per instruction; only the ratio
// matters, and the silicon-corroboration experiment (Fig 16) checks the
// end-to-end calibration.
const baselineCPI = 0.5

// cpuClockPS is the 3.1GHz core clock period (Table IV).
const cpuClockPS = 323

// Stream generates the deterministic event sequence of one core running
// the profiled benchmark. Not safe for concurrent use.
type Stream struct {
	p         Profile
	rng       *xrand.Rand
	remaining int64 // instructions left to emit

	hot        []uint64 // recently touched block addresses
	hotN       int
	warmBase   uint64   // base of this core's warm working-set region
	seqAddrs   []uint64 // per-stream next sequential address
	curStrm    int      // stream of the active sequential run (-1 none)
	runLeft    int      // blocks left in the active run
	pending    Event    // access event to emit after the compute gap
	hasPending bool

	instrSinceComm int64
	commEveryInstr int64
}

// NewStream returns the event stream for `instructions` instructions of
// the benchmark, seeded deterministically. It panics on a profile that
// Validate rejects: profiles are static data, so that is a programmer
// error here, and callers that take profiles as input validate first.
func (p Profile) NewStream(seed uint64, instructions int64) *Stream {
	if err := p.Validate(); err != nil {
		panic(err.Error())
	}
	if instructions <= 0 {
		panic("workload: non-positive instruction budget")
	}
	rng := xrand.New(seed ^ hashName(p.Name))
	s := &Stream{
		p:         p,
		rng:       rng,
		remaining: instructions,
		hot:       make([]uint64, hotSetSize),
		seqAddrs:  make([]uint64, p.Streams),
	}
	for i := range s.seqAddrs {
		s.seqAddrs[i] = rng.Uint64n(p.FootprintBytes) &^ 63
	}
	if p.WarmSetBytes > 0 && p.WarmSetBytes < p.FootprintBytes {
		s.warmBase = rng.Uint64n(p.FootprintBytes-p.WarmSetBytes) &^ 63
	}
	for i := range s.hot {
		s.hot[i] = rng.Uint64n(p.FootprintBytes) &^ 63
	}
	s.hotN = hotSetSize
	if p.CommShare > 0 {
		// One comm chunk of commChunkPS every commEveryInstr instructions
		// yields CommShare of baseline time:
		// share = chunk / (chunk + instr*CPI*clock)
		instrTimePS := float64(commChunkPS) * (1 - p.CommShare) / p.CommShare
		s.commEveryInstr = int64(instrTimePS / (baselineCPI * cpuClockPS))
		if s.commEveryInstr < 1 {
			s.commEveryInstr = 1
		}
	}
	return s
}

func hashName(name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return h.Sum64()
}

// Next returns the next trace event, or ok=false when the instruction
// budget is exhausted.
func (s *Stream) Next() (Event, bool) {
	if s.hasPending {
		s.hasPending = false
		return s.pending, true
	}
	if s.remaining <= 0 {
		return Event{}, false
	}
	// Communication pause due?
	if s.commEveryInstr > 0 && s.instrSinceComm >= s.commEveryInstr {
		s.instrSinceComm = 0
		return Event{Kind: Comm, DurationPS: commChunkPS}, true
	}
	// Compute gap until the next access: exponential with mean
	// 1000/AccessesPerKI instructions.
	gap := int64(s.rng.Exponential(1000/s.p.AccessesPerKI)) + 1
	if gap > s.remaining {
		gap = s.remaining
	}
	s.remaining -= gap
	s.instrSinceComm += gap
	s.pending = s.nextAccess()
	s.hasPending = true
	return Event{Kind: Compute, Instr: gap}, true
}

// nextAccess synthesizes one memory reference per the profile's mix.
func (s *Stream) nextAccess() Event {
	var addr uint64
	stream := 0
	switch {
	case s.runLeft > 0:
		// Continue the active sequential run: consecutive blocks give the
		// row-buffer locality streaming HPC kernels exhibit.
		s.runLeft--
		addr = s.advanceStream(s.curStrm)
		stream = s.curStrm + 1
	case s.rng.Bool(s.p.ReuseFraction):
		addr = s.hot[s.rng.Intn(s.hotN)]
	case s.p.WarmSetBytes > 0 && s.rng.Bool(s.p.WarmFraction):
		addr = s.warmBase + (s.rng.Uint64n(s.p.WarmSetBytes) &^ 63)
	case s.rng.Bool(s.p.StreamFraction):
		i := s.rng.Intn(len(s.seqAddrs))
		runLen := s.p.RunLength
		if runLen <= 0 {
			runLen = 16
		}
		s.curStrm = i
		s.runLeft = int(s.rng.Exponential(float64(runLen)))
		addr = s.advanceStream(i)
		stream = i + 1
	default:
		addr = s.rng.Uint64n(s.p.FootprintBytes) &^ 63
	}
	// Rotate the hot set.
	s.hot[s.rng.Intn(s.hotN)] = addr

	if s.rng.Bool(s.p.WriteFraction) {
		return Event{Kind: Write, Addr: addr, Stream: stream}
	}
	return Event{
		Kind:      Read,
		Addr:      addr,
		Stream:    stream,
		Dependent: s.rng.Bool(s.p.DependentFrac),
	}
}

// advanceStream steps sequential stream i one block forward, wrapping at
// the footprint boundary.
func (s *Stream) advanceStream(i int) uint64 {
	s.seqAddrs[i] += 64
	if s.seqAddrs[i] >= s.p.FootprintBytes {
		s.seqAddrs[i] = 0
	}
	return s.seqAddrs[i]
}
