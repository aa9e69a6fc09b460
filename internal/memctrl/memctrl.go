// Package memctrl implements a per-channel DDR4 memory controller at
// command granularity, matching Table IV of the paper:
//
//   - FR-FCFS scheduling with bank fairness,
//   - hybrid (timeout-based) page policy,
//   - Skylake-style XOR rank/bank address mapping,
//   - a 256-entry read queue and 128-entry write queue per channel,
//   - batched write draining with explicit read/write mode switching,
//   - a 128 KB 64-way victim writeback cache per channel (§III-E),
//   - broadcast writes that update a block and its copies in one bus
//     transaction (FMR's mechanism, reused by Hetero-DMR), and
//   - the heterogeneous read/write operation of Hetero-DMR: copies served
//     from the free module at an unsafely fast operating point during read
//     mode, originals kept at specification (parked in self-refresh during
//     read mode) and updated at specification during write mode.
//
// The controller is a timing model; block data and real ECC live in
// internal/heterodmr. Detected-copy-error corrections are charged as a
// timing penalty here (two frequency switches plus a spec-speed read).
package memctrl

import (
	"fmt"
	"math/bits"

	"repro/internal/blocktab"
	"repro/internal/dram"
	"repro/internal/dramspec"
	"repro/internal/obs"
	"repro/internal/xrand"
)

// Replication selects the data layout / service policy of the channel.
type Replication int

const (
	// ReplicationNone is the Commercial Baseline: no copies, all ranks
	// hold software data, everything at specification.
	ReplicationNone Replication = iota
	// ReplicationFMR stores one copy of every block in the free module
	// and serves reads from whichever replica projects to finish first;
	// everything at specification (the MICRO'19 FMR baseline).
	ReplicationFMR
	// ReplicationHeteroDMR stores one copy in the free module and runs
	// read mode at the unsafely fast operating point against copies only.
	ReplicationHeteroDMR
	// ReplicationHeteroDMRFMR stores two copies in the free module
	// (requires <25% utilization), serves reads FMR-style from the better
	// copy, at the unsafely fast operating point.
	ReplicationHeteroDMRFMR
)

// String names the replication mode.
func (r Replication) String() string {
	switch r {
	case ReplicationNone:
		return "Commercial Baseline"
	case ReplicationFMR:
		return "FMR"
	case ReplicationHeteroDMR:
		return "Hetero-DMR"
	case ReplicationHeteroDMRFMR:
		return "Hetero-DMR+FMR"
	default:
		return fmt.Sprintf("Replication(%d)", int(r))
	}
}

// Replicated reports whether the mode stores copies.
func (r Replication) Replicated() bool { return r != ReplicationNone }

// Fast reports whether read mode runs beyond specification.
func (r Replication) Fast() bool {
	return r == ReplicationHeteroDMR || r == ReplicationHeteroDMRFMR
}

// CleanSource supplies dirty LLC blocks for proactive cleaning when a
// channel enters write mode, whatever its replication: enterWriteMode
// tops every spurt up to its remaining batch budget. §III-E cleans the
// least recently used dirty blocks to fill Hetero-DMR's 100x larger write
// batch; conventional designs clean into their smaller batches as well.
type CleanSource interface {
	// CleanDirty returns up to max block addresses that were dirty and
	// have now been cleaned (written back); they become writes.
	CleanDirty(max int) []uint64
}

// Config describes one channel.
type Config struct {
	Ranks        int // total ranks (modules * ranks/module); must be power of two
	RanksPerMod  int // ranks per module (2 for the paper's dual-rank RDIMMs)
	BanksPerRank int // 16 for DDR4
	RowBytes     int // row-buffer size in bytes (8KB typical)
	BlockBytes   int // cache-line size (64)

	ReadQueueCap  int // 256 in Table IV
	WriteQueueCap int // 128 in Table IV
	WriteBatch    int // writes drained per write mode (128, or 12800 for Hetero-DMR)

	// WritebackCacheBlocks/Ways size the per-channel victim writeback
	// cache (128KB/64B = 2048 blocks, 64-way in §III-E). Zero disables it.
	WritebackCacheBlocks int
	WritebackCacheWays   int

	PageTimeout int64 // hybrid page policy timeout in ps (200 CPU cycles)

	Spec dramspec.Config  // the always-safe operating point
	Fast *dramspec.Config // unsafely fast point; required iff Replication.Fast()

	Replication Replication

	// CopyErrorRate is the per-read probability that a copy read at the
	// fast operating point is detected bad by the detection-only ECC and
	// needs correction from the original (Fig 6's measured error rates).
	CopyErrorRate float64

	// CleanSource provides proactive LLC cleaning; optional.
	CleanSource CleanSource

	// FreqSwitchPS is the latency of one JEDEC-compliant frequency
	// transition (Figs 9-10). Defaults to the physical ~1us
	// (dramspec.FrequencySwitchLatency); scaled node simulations pass a
	// proportionally scaled value so the switch-to-batch overhead ratio
	// is preserved.
	FreqSwitchPS int64

	// SRExitPS overrides the ranks' self-refresh exit latency (0 keeps
	// the physical tRFC+10ns); scaled simulations shrink it with the
	// other per-transition costs.
	SRExitPS int64

	// Seed drives the error-injection stream.
	Seed uint64
}

// DefaultConfig returns the Table IV channel for a given replication mode
// and operating points.
func DefaultConfig(repl Replication, spec dramspec.Config, fast *dramspec.Config) Config {
	batch := dramspec.ConventionalWriteBatch
	if repl.Fast() {
		batch = dramspec.HeteroDMRWriteBatch
	}
	return Config{
		Ranks:                4,
		RanksPerMod:          2,
		BanksPerRank:         16,
		RowBytes:             8192,
		BlockBytes:           64,
		ReadQueueCap:         256,
		WriteQueueCap:        128,
		WriteBatch:           batch,
		WritebackCacheBlocks: 2048,
		WritebackCacheWays:   64,
		PageTimeout:          200 * 323, // 200 cycles at 3.1GHz ~= 64.5ns
		Spec:                 spec,
		Fast:                 fast,
		Replication:          repl,
		FreqSwitchPS:         dramspec.FrequencySwitchLatency,
		Seed:                 1,
	}
}

// Validate reports a configuration that cannot run: an impossible
// geometry, queue or writeback cache, a missing or zero-rate operating
// point, or a replica layout the channel cannot hold.
func (c Config) Validate() error {
	switch {
	case c.Replication < ReplicationNone || c.Replication > ReplicationHeteroDMRFMR:
		return fmt.Errorf("memctrl: unknown replication %v", c.Replication)
	case c.Ranks <= 0 || c.Ranks&(c.Ranks-1) != 0:
		return fmt.Errorf("memctrl: Ranks=%d must be a positive power of two", c.Ranks)
	case c.RanksPerMod <= 0 || c.Ranks%c.RanksPerMod != 0:
		return fmt.Errorf("memctrl: RanksPerMod=%d incompatible with Ranks=%d", c.RanksPerMod, c.Ranks)
	case c.BanksPerRank <= 0 || c.BanksPerRank&(c.BanksPerRank-1) != 0:
		return fmt.Errorf("memctrl: BanksPerRank=%d must be a positive power of two", c.BanksPerRank)
	case c.RowBytes <= 0 || c.BlockBytes <= 0 || c.RowBytes%c.BlockBytes != 0:
		return fmt.Errorf("memctrl: RowBytes=%d BlockBytes=%d invalid", c.RowBytes, c.BlockBytes)
	case c.ReadQueueCap <= 0 || c.WriteQueueCap <= 0 || c.WriteBatch <= 0:
		return fmt.Errorf("memctrl: queue capacities must be positive")
	case c.Spec.Rate <= 0:
		return fmt.Errorf("memctrl: Spec data rate %v must be positive", c.Spec.Rate)
	case c.Replication.Fast() && c.Fast == nil:
		return fmt.Errorf("memctrl: %v requires a Fast operating point", c.Replication)
	case c.Replication.Fast() && c.Fast.Rate <= 0:
		return fmt.Errorf("memctrl: Fast data rate %v must be positive", c.Fast.Rate)
	case c.Replication.Replicated() && c.Ranks < 2*c.RanksPerMod:
		return fmt.Errorf("memctrl: replication needs at least two modules")
	case c.Replication == ReplicationHeteroDMRFMR && c.Ranks/2 < 2:
		return fmt.Errorf("memctrl: %v keeps two copies in the free half of the channel, but Ranks=%d leaves it %d rank(s)",
			c.Replication, c.Ranks, c.Ranks/2)
	case c.WritebackCacheBlocks > 0 && (c.WritebackCacheWays <= 0 || c.WritebackCacheBlocks%c.WritebackCacheWays != 0):
		return fmt.Errorf("memctrl: writeback cache %d blocks not divisible by %d ways",
			c.WritebackCacheBlocks, c.WritebackCacheWays)
	}
	if pressure, preempt := writeWatermarks(c.WriteQueueCap); pressure <= preempt {
		return fmt.Errorf("memctrl: WriteQueueCap=%d livelocks: its write-pressure watermark %d does not exceed its read-preemption watermark %d",
			c.WriteQueueCap, pressure, preempt)
	}
	return nil
}

// writeWatermarks returns the write-queue occupancies that steer a
// channel between read and write mode: read mode switches to write mode
// once the queue holds pressure writes, and waiting reads end write mode
// once it holds preempt or fewer. Unless pressure exceeds preempt, a
// channel with reads waiting flips modes forever, so Validate rejects
// such caps (1 to 4).
func writeWatermarks(writeQueueCap int) (pressure, preempt int) {
	return writeQueueCap * 7 / 8, writeQueueCap * 3 / 4
}

// Request is one memory access in flight through the controller.
//
// Requests are pooled: the channel recycles them through a freelist once
// they are both complete and released (see Release), so a steady-state
// read stream performs no allocation. Callers that never call Release
// simply opt out of recycling for the handles they hold — the request is
// then garbage-collected like any other object and can never be reused
// while reachable.
type Request struct {
	Addr   uint64
	Arrive int64 // when the request entered the controller
	Done   int64 // completion (last data beat + controller overhead); 0 while pending

	rank, bank int
	row        int64

	// Intrusive links (see chains.go): qnext/qprev thread every queued
	// request onto its queue in arrival order, and next/prev onto its
	// decoded (rank, bank) chain, so the scheduler can consult one bank's
	// pending requests without walking the queue. seq is the request's
	// push number in its queue, so chain-based picks compare arrival
	// order directly.
	qnext, qprev *Request
	next, prev   *Request
	seq          uint64

	released bool   // caller gave the handle back; recycle at completion
	pooled   bool   // on the freelist (DebugPooling use-after-release checks)
	gen      uint32 // bumped on every recycle (use-after-release detection in tests)
}

// Stats aggregates what the evaluation figures need.
type Stats struct {
	Reads, Writes    uint64 // DRAM accesses actually performed
	BroadcastWrites  uint64 // writes that updated copies in the same transaction
	RowHits          uint64
	RowMisses        uint64
	RowConflicts     uint64
	WriteForwards    uint64 // reads served from the write path (no DRAM access)
	ModeSwitches     uint64
	FreqSwitches     uint64
	DetectedErrors   uint64 // copy reads flagged by detection-only ECC
	Corrections      uint64
	CleanedBlocks    uint64 // proactive LLC cleans
	BusBusyPS        int64  // data-bus occupancy
	FastPS           int64  // virtual time spent with read mode fast
	WriteModePS      int64  // virtual time spent draining write batches
	ReadLatencySumPS int64
	ReadCount        uint64
}

// Channel is one memory channel. It is not safe for concurrent use.
type Channel struct {
	cfg   Config
	ranks []*dram.Rank
	rng   *xrand.Rand

	now           int64
	busFreeAt     int64
	lastFastStart int64

	readQ  reqQueue
	writeQ reqQueue
	wb     *wbCache

	// wqBlocks counts queued writes per block, mirroring writeQ's live
	// contents, so the read path's pending-write check is one table probe
	// instead of a queue scan (SubmitRead runs it on every read).
	wqBlocks *blocktab.Table

	// freeReqs is the request freelist: completed-and-released requests
	// are zeroed and reused by the next Submit, so the steady-state loop
	// allocates nothing.
	freeReqs []*Request

	writeMode      bool
	writeModeStart int64
	// fastMode is true while a Hetero-DMR channel serves reads from the
	// copies at the unsafely fast operating point; false during the slow
	// phase bracketed by the two frequency switches (§III-A1), in which
	// the channel behaves like a conventional controller at spec.
	fastMode  bool
	batchLeft int
	// Bank fairness: consecutive row hits on the last-served bank.
	streakBank int // global bank of the live streak; -1 when none
	streakLen  int

	colBits, bankBits, rankBits int

	// lastUse tracks per-(rank,bank) last column command for the hybrid
	// page policy's timeout.
	lastUse []int64

	// Event-driven scheduling state (see events.go and chains.go).
	// lastSubmit enforces SubmitRead's documented non-decreasing-arrival
	// contract, which is what makes the read queue's head the oldest
	// pending arrival (the serveRead idle jump depends on it).
	lastSubmit int64
	// refreshAt caches the earliest auto-refresh deadline over awake
	// ranks, so serviceRefresh is O(1) when nothing is due.
	refreshAt int64
	// closeHeap is a lazy-deletion min-heap of (deadline, bank) page-
	// timeout expiries; closeDefer is scratch for entries whose deadline
	// passed but whose precharge is not yet legal.
	closeHeap  []closeEvent
	closeDefer []closeEvent
	// closeAt[gb] is the deadline of bank gb's entry currently in
	// closeHeap (0 = none), capping the heap at one entry per bank; pops
	// reconcile against the live lastUse-derived deadline.
	closeAt []int64
	// readChains/writeChains thread the queued requests of each decoded
	// (rank, bank) through the request nodes themselves; rHits/wHits
	// count, per serving bank, the queued requests whose row matches the
	// bank's open row and list the banks where that count is non-zero,
	// so the row-hit passes visit only banks that can produce a hit.
	readChains  []reqChain
	writeChains []reqChain
	rHits       bankHits
	wHits       bankHits
	// wHeads holds the head of every non-empty write chain, sorted by
	// seq, and wEdge is the writeScanCap-th oldest queued write (nil
	// while fewer are queued): together they give the write projection
	// pass its banks in FIFO order, window-bounded, without walking the
	// write queue.
	wHeads []*Request
	wEdge  *Request
	// chainRank maps a serving rank to the decoded rank whose chain it
	// serves (-1 for ranks no address decodes to or is replicated onto).
	chainRank []int
	// minTRCD is the smallest tRCD over all ranks at their current
	// operating points: a lower bound on any projected row miss, used to
	// stop the write projection pass early.
	minTRCD int64
	// replicas[r] lists the ranks holding decoded rank r's data: r, then
	// its copies (appendCopyRanks). The layout is fixed at NewChannel, so
	// reads, writes and the chain counters share this one table.
	replicas [][]int
	// origRanks and copyRanks split a fast design's ranks into module
	// halves: read mode parks the originals in self-refresh and runs the
	// copies at the fast point. Both alias ranks; nil for other designs.
	origRanks, copyRanks []*dram.Rank

	stats Stats
	consv Conservation

	// Observability (see Observe); all nil-safe when detached.
	obsReg     *obs.Registry
	obsScope   string
	rec        *obs.Recorder
	readQHist  *obs.Histogram
	writeQHist *obs.Histogram
}

// ControllerOverhead is the fixed controller+interconnect latency added to
// every DRAM access completion.
const ControllerOverhead = 10 * dramspec.Nanosecond

// NewChannel builds a channel from cfg. It returns an error if the
// configuration is invalid.
func NewChannel(cfg Config) (*Channel, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Channel{
		cfg:        cfg,
		rng:        xrand.New(cfg.Seed),
		streakBank: -1,
		colBits:    bits.TrailingZeros64(uint64(cfg.RowBytes / cfg.BlockBytes)),
		bankBits:   bits.TrailingZeros64(uint64(cfg.BanksPerRank)),
		rankBits:   bits.TrailingZeros64(uint64(cfg.Ranks)),
		wqBlocks:   blocktab.New(cfg.WriteQueueCap),
	}
	for i := 0; i < cfg.Ranks; i++ {
		r := dram.NewRank(cfg.BanksPerRank, cfg.Spec.Timing, cfg.Spec.Rate.ClockPS())
		if cfg.SRExitPS > 0 {
			r.SetExitLatency(cfg.SRExitPS)
		}
		c.ranks = append(c.ranks, r)
	}
	if cfg.WritebackCacheBlocks > 0 {
		c.wb = newWBCache(cfg.WritebackCacheBlocks, cfg.WritebackCacheWays)
	}
	c.lastUse = make([]int64, cfg.Ranks*cfg.BanksPerRank)
	c.replicas = make([][]int, cfg.Ranks)
	for r := range c.replicas {
		c.replicas[r] = c.appendCopyRanks([]int{r}, r)
	}
	c.initSchedIndexes()
	// Replicated fast designs start in read mode at the fast point with
	// originals parked in self-refresh.
	if cfg.Replication.Fast() {
		half := cfg.Ranks / 2
		c.origRanks, c.copyRanks = c.ranks[:half], c.ranks[half:]
		c.transitionToFast()
	}
	c.reindexTiming()
	return c, nil
}

// MustNewChannel is NewChannel that panics on error.
func MustNewChannel(cfg Config) *Channel {
	c, err := NewChannel(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Now returns the channel's current virtual time in picoseconds.
func (c *Channel) Now() int64 { return c.now }

// Stats returns a copy of the accumulated statistics.
func (c *Channel) Stats() Stats {
	s := c.stats
	if c.cfg.Replication.Fast() && c.fastMode {
		s.FastPS += c.now - c.lastFastStart
	}
	return s
}

// Config returns the channel's configuration.
func (c *Channel) Config() Config { return c.cfg }
