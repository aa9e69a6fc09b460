// Package node assembles cores, caches, and memory channels into the two
// simulated machines of Tables III-IV and runs one benchmark on one memory
// design, producing the per-run measurements the evaluation figures
// consume (normalized performance, DRAM accesses per instruction,
// bandwidth utilization, write share, and energy-model inputs).
package node

import (
	"fmt"
	"sync"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/dramspec"
	"repro/internal/memctrl"
	"repro/internal/obs"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// Hierarchy is one of the paper's two memory hierarchies (Table III).
type Hierarchy struct {
	Name     string
	Cores    int
	Channels int
	// L2PerCoreBytes + L3TotalBytes realize the paper's cache-per-core
	// ratios (4.5MB/core for Hierarchy1, 2.375MB/core for Hierarchy2,
	// with a 1MB 16-way L2 per core from Table IV).
	L2PerCoreBytes int
	L3TotalBytes   int
}

// Hierarchy1 is the 8-core, 1-channel machine (4.5MB L2+L3 per core).
func Hierarchy1() Hierarchy {
	return Hierarchy{
		Name:           "Hierarchy1",
		Cores:          8,
		Channels:       1,
		L2PerCoreBytes: 1 << 20,
		L3TotalBytes:   28 << 20, // (4.5-1)MB * 8 cores
	}
}

// Hierarchy2 is the 16-core, 4-channel machine (2.375MB L2+L3 per core).
func Hierarchy2() Hierarchy {
	return Hierarchy{
		Name:           "Hierarchy2",
		Cores:          16,
		Channels:       4,
		L2PerCoreBytes: 1 << 20,
		L3TotalBytes:   22 << 20, // (2.375-1)MB * 16 cores
	}
}

// Hierarchies returns both machines in presentation order.
func Hierarchies() []Hierarchy { return []Hierarchy{Hierarchy1(), Hierarchy2()} }

// Config selects the machine, the memory design, and the run length.
type Config struct {
	H           Hierarchy
	Replication memctrl.Replication
	Spec        dramspec.Config
	Fast        *dramspec.Config // required for Hetero-DMR designs
	// CopyErrorRate is the per-read detected-error probability of the
	// unsafely fast copies (Fig 6).
	CopyErrorRate float64
	// InstructionsPerCore is the measured-region length.
	InstructionsPerCore int64
	// WarmupInstructions per core run before measurement begins (the
	// paper warms caches/predictors before its 20ms measured window);
	// statistics and execution time exclude the warmup.
	WarmupInstructions int64
	// ScaleShift shrinks L2/L3 capacities and workload footprints by
	// 2^ScaleShift so steady-state cache behaviour (including dirty
	// evictions reaching DRAM) is reached within tractable instruction
	// counts. Relative behaviour across designs and hierarchies is
	// preserved because every size scales together. Default 4 (divide by
	// 16); see DESIGN.md's simulation-methodology note.
	ScaleShift uint
	Seed       uint64

	// ScanScheduler runs every channel on the legacy poll-per-step
	// scheduling paths instead of the event-driven indexes (see
	// memctrl.Config.ScanScheduler). Differential tests use it to pin
	// that the two produce identical results at full-node scale.
	ScanScheduler bool

	// Check enables the conservation self-checks: after the measured
	// region the channels are drained and every component's accounting
	// invariants are verified; failures land in Result.Violations. The
	// checks run after all measurements are taken, so they cannot perturb
	// reported results.
	Check bool
	// Obs, when non-nil, receives per-channel DRAM command counts,
	// queue-depth histograms, and mode/frequency-switch events, scoped
	// under ObsScope (defaults to hierarchy/design/benchmark/seed).
	Obs      *obs.Registry
	ObsScope string
}

// DefaultInstructions is the default measured-region length per core; it
// corresponds to the paper's 20ms cycle-accurate window scaled to this
// simulator's throughput.
const DefaultInstructions = 100_000

// DefaultWarmup is the default per-core warmup length (the paper's cache
// and predictor warmup before the measured window).
const DefaultWarmup = 40_000

// DefaultScaleShift divides cache capacities and workload footprints by
// 2^4 = 16 (see Config.ScaleShift).
const DefaultScaleShift = 4

// Result is everything one run measures.
type Result struct {
	Benchmark    string
	Design       memctrl.Replication
	Hierarchy    string
	ExecPS       int64
	Instructions int64
	IPC          float64

	Mem       memctrl.Stats
	CoreStats []cpu.Stats

	// DRAMAccessesPerKI is reads+writes reaching DRAM per kilo-instruction
	// (Fig 14 compares this across designs).
	DRAMAccessesPerKI float64
	// BandwidthUtil is data-bus occupancy over the run (Fig 15).
	BandwidthUtil float64
	// WriteShare is DRAM writes / all DRAM accesses (Fig 15's ~15%).
	WriteShare float64
	// ActivatesPerRank feeds the energy model.
	Activates uint64

	// Violations holds the conservation-invariant failures found when
	// Config.Check is set (empty on a clean run).
	Violations []obs.Violation
}

// router spreads addresses across channels at 1KB granularity, so
// sequential runs keep their row-buffer locality within a channel (fine
// 64B interleaving would shred every stream across all channels and
// destroy the FR-FCFS hit rate the paper's controller achieves).
type router struct {
	chans []*memctrl.Channel
	// mask is len(chans)-1 when that is a power of two (it always is for
	// the paper's 1- and 4-channel hierarchies), letting pick shift+mask
	// instead of divide; -1 selects the generic modulo path.
	mask int
}

// channelInterleaveBytes is the per-channel interleave granularity.
const channelInterleaveBytes = 1024

// channelInterleaveShift is log2(channelInterleaveBytes).
const channelInterleaveShift = 10

// seal freezes the channel set and precomputes the pick fast path.
func (r *router) seal() {
	r.mask = -1
	if n := len(r.chans); n&(n-1) == 0 {
		r.mask = n - 1
	}
}

func (r *router) pick(addr uint64) *memctrl.Channel {
	if r.mask == 0 {
		return r.chans[0]
	}
	if r.mask > 0 {
		return r.chans[(addr>>channelInterleaveShift)&uint64(r.mask)]
	}
	return r.chans[(addr/channelInterleaveBytes)%uint64(len(r.chans))]
}

func (r *router) SubmitRead(addr uint64, at int64) *memctrl.Request {
	return r.pick(addr).SubmitRead(addr, at)
}

func (r *router) SubmitWrite(addr uint64, at int64) {
	r.pick(addr).SubmitWrite(addr, at)
}

func (r *router) WaitFor(req *memctrl.Request) int64 {
	if req.Done != 0 {
		return req.Done
	}
	// A request always resolves on its own channel.
	return r.pick(req.Addr).WaitFor(req)
}

func (r *router) Release(req *memctrl.Request) {
	// Route before the channel recycles the handle (which resets Addr).
	r.pick(req.Addr).Release(req)
}

// channelCleaner filters the shared LLC's dirty blocks down to the ones
// homed on a particular channel, so each channel's write batch only cleans
// its own blocks.
type channelCleaner struct {
	l3    *cache.Cache
	r     *router
	owner *memctrl.Channel
	match func(addr uint64) bool // built once; avoids a closure per write mode
}

func newChannelCleaner(l3 *cache.Cache, r *router, owner *memctrl.Channel) *channelCleaner {
	cc := &channelCleaner{l3: l3, r: r, owner: owner}
	if len(r.chans) > 1 {
		cc.match = func(addr uint64) bool { return cc.r.pick(addr) == cc.owner }
	}
	// Single channel: every block is homed here, so a nil match (match
	// everything) selects the identical candidate set without a routing
	// probe per dirty line.
	return cc
}

func (cc *channelCleaner) CleanDirty(max int) []uint64 {
	// Clean at most a thirty-second of the currently dirty LLC per write mode:
	// cleaning is meant to top up the batch with blocks that would be
	// written back anyway, not to scrub the whole cache (which would
	// re-dirty and inflate write traffic well past Fig 14's <1% budget).
	if cap := cc.l3.DirtyCount() / 32; max > cap {
		max = cap
	}
	return cc.l3.CleanDirtyMatching(max, cc.match)
}

// runScratch is the per-replay working state Run reuses across
// simulations. The experiment engine's cell plan executes thousands of
// node runs back to back; without reuse, rebuilding the LLC's line arrays
// and the scheduler's bookkeeping slices for every run dominated the
// engine's allocation profile. Everything here is either fully
// overwritten (the object slices) or explicitly zeroed (the arena, the
// bool slices) before reuse, so a pooled run is state-identical to a
// fresh one and simulation output is unchanged.
type runScratch struct {
	arena    cache.Arena
	chans    []*memctrl.Channel
	cores    []*cpu.Core
	readers  []cpu.Reader
	coreHeap []int32
	warmed   []bool
	warmCore []cpu.Stats
}

var scratchPool = sync.Pool{New: func() any { return new(runScratch) }}

// recordScratch is the per-recording working state: the arena the
// private L1/L2 of each core are carved from (they are dropped once the
// core is recorded), the recorder itself, and the trace each core records
// into before it is copied out at its exact size.
type recordScratch struct {
	arena cache.Arena
	rec   cpu.Recorder
	tr    cpu.Trace
}

var recordPool = sync.Pool{New: func() any { return new(recordScratch) }}

// boolScratch returns s resized to n with every element false.
func boolScratch(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = false
	}
	return s
}

// coreLess orders the interleaving heap by (virtual time, core index);
// the index tie-break reproduces the legacy scan's "first strictly
// smaller wins" selection bit for bit.
func coreLess(a, b int32, cores []*cpu.Core) bool {
	ta, tb := cores[a].Now(), cores[b].Now()
	return ta < tb || (ta == tb && a < b)
}

func coreSiftDown(h []int32, i int, cores []*cpu.Core) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && coreLess(h[l], h[s], cores) {
			s = l
		}
		if r < n && coreLess(h[r], h[s], cores) {
			s = r
		}
		if s == i {
			return
		}
		h[s], h[i] = h[i], h[s]
		i = s
	}
}

// objScratch returns s resized to n; callers overwrite every element.
func objScratch[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// withDefaults fills cfg's zero run-length, scale and seed fields with
// the defaults.
func withDefaults(cfg Config) Config {
	if cfg.InstructionsPerCore <= 0 {
		cfg.InstructionsPerCore = DefaultInstructions
	}
	if cfg.WarmupInstructions <= 0 {
		cfg.WarmupInstructions = DefaultWarmup
	}
	if cfg.ScaleShift == 0 {
		cfg.ScaleShift = DefaultScaleShift
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return cfg
}

// l1Config, l2Config and l3Config size the cache levels of one core and
// the shared LLC (Table IV), with L2/L3 shrunk by the scale shift.
func l1Config() cache.Config {
	return cache.Config{
		SizeBytes:  64 << 10, // 64KB split D/I modelled as one (Table IV)
		Ways:       8,
		BlockBytes: 64,
		LatencyPS:  3 * cpu.ClockPS,
	}
}

func l2Config(h Hierarchy, shift uint) cache.Config {
	return cache.Config{
		SizeBytes:  h.L2PerCoreBytes >> shift,
		Ways:       16,
		BlockBytes: 64,
		LatencyPS:  12 * cpu.ClockPS,
	}
}

func l3Config(h Hierarchy, shift uint) cache.Config {
	return cache.Config{
		SizeBytes:  h.L3TotalBytes >> shift,
		Ways:       16,
		BlockBytes: 64,
		LatencyPS:  22 * dramspec.Nanosecond, // Table IV: 22ns L3
	}
}

// FrontEndKey is the identity of a node front end: everything Record
// reads, after defaults are applied. Cells with equal keys can share one
// recording whatever their memory designs. The key is comparable, so it
// serves as a map key.
type FrontEndKey struct {
	H             Hierarchy
	Prof          workload.Profile
	Seed          uint64
	Instr, Warmup int64
	Shift         uint
	Check         bool
}

// FrontEndKeyOf returns the front-end identity of cfg running prof.
func FrontEndKeyOf(cfg Config, prof workload.Profile) FrontEndKey {
	cfg = withDefaults(cfg)
	return FrontEndKey{
		H:      cfg.H,
		Prof:   prof,
		Seed:   cfg.Seed,
		Instr:  cfg.InstructionsPerCore,
		Warmup: cfg.WarmupInstructions,
		Shift:  cfg.ScaleShift,
		Check:  cfg.Check,
	}
}

// GroupByFrontEnd partitions items by front-end identity, keeping the
// first-appearance order of groups and of items within each group. key
// reports false for an item without a front end (a Monte-Carlo range);
// such an item forms a group of its own.
func GroupByFrontEnd[T any](items []T, key func(T) (FrontEndKey, bool)) [][]T {
	index := map[FrontEndKey]int{}
	var groups [][]T
	for _, it := range items {
		k, ok := key(it)
		if ok {
			if i, seen := index[k]; seen {
				groups[i] = append(groups[i], it)
				continue
			}
			index[k] = len(groups)
		}
		groups = append(groups, []T{it})
	}
	return groups
}

// FrontEnd is the memory-design-independent half of a node simulation:
// the prefilled LLC and every core's recorded private front end (see
// cpu.Recorder). It is a pure function of its FrontEndKey, so one
// recording serves every memory design of that cell: FrontEnd.Run
// replays it against a fresh copy of the LLC and the design's own memory
// channels, and Run is exactly Record followed by that replay. A
// FrontEnd is read-only once recorded and safe for concurrent Runs.
type FrontEnd struct {
	key      FrontEndKey
	prof     workload.Profile // key.Prof with footprints scaled
	llc      *cache.Cache
	traces   []cpu.Trace
	l1s, l2s []*cache.Cache // retained only when recorded with Check
}

// Record simulates the design-independent front end of cfg's machine
// running prof. Only the fields FrontEndKeyOf reads matter; with Check
// set the private caches are kept so every replay can run their
// conservation checks. It returns an error for an invalid hierarchy and
// for a profile that, scaled to cfg.ScaleShift, fails
// workload.Profile.Validate.
func Record(cfg Config, prof workload.Profile) (*FrontEnd, error) {
	if cfg.H.Cores <= 0 || cfg.H.Channels <= 0 {
		return nil, fmt.Errorf("node: invalid hierarchy %+v", cfg.H)
	}
	cfg = withDefaults(cfg)
	key := FrontEndKeyOf(cfg, prof)
	scale := uint64(1) << cfg.ScaleShift
	prof.FootprintBytes /= scale
	if prof.FootprintBytes < 1<<20 {
		prof.FootprintBytes = 1 << 20
	}
	prof.WarmSetBytes /= scale
	// Validate what the streams will run: the scaled profile, whose
	// footprint the clamp above keeps at 1MB or more.
	if err := prof.Validate(); err != nil {
		return nil, fmt.Errorf("node: %w", err)
	}

	fe := &FrontEnd{
		key:    key,
		prof:   prof,
		traces: make([]cpu.Trace, cfg.H.Cores),
	}
	// Prefill the shared LLC to steady-state occupancy so dirty evictions
	// reach DRAM during the measured region (a cold LLC of this size would
	// otherwise absorb every writeback).
	fe.llc = cache.New(l3Config(cfg.H, cfg.ScaleShift))
	prefillL3(fe.llc, prof.FootprintBytes, cfg.Seed)

	scr := recordPool.Get().(*recordScratch)
	defer func() {
		// The arena-backed L1/L2 never leave this function.
		scr.arena.Reset()
		recordPool.Put(scr)
	}()
	instr := cfg.WarmupInstructions + cfg.InstructionsPerCore
	for i := range fe.traces {
		var l1, l2 *cache.Cache
		if cfg.Check {
			l1, l2 = cache.New(l1Config()), cache.New(l2Config(cfg.H, cfg.ScaleShift))
			fe.l1s = append(fe.l1s, l1)
			fe.l2s = append(fe.l2s, l2)
		} else {
			scr.arena.Reset()
			l1 = cache.NewIn(&scr.arena, l1Config())
			l2 = cache.NewIn(&scr.arena, l2Config(cfg.H, cfg.ScaleShift))
		}
		scr.rec.Reset(l1, l2)
		// Each core runs one MPI rank of the benchmark: same profile,
		// distinct address-space slice via the seed.
		stream := prof.NewStream(cfg.Seed+uint64(i)*104729, instr)
		scr.tr.Reset()
		for {
			ev, ok := stream.Next()
			if !ok {
				break
			}
			scr.rec.Record(ev, &scr.tr)
		}
		fe.traces[i] = scr.tr.Clone()
	}
	scr.rec.Reset(nil, nil)
	return fe, nil
}

// Run executes one benchmark on one machine+design and returns the
// measurements. It returns an error on invalid configuration.
func Run(cfg Config, prof workload.Profile) (Result, error) {
	fe, err := Record(cfg, prof)
	if err != nil {
		return Result{}, err
	}
	return fe.Run(cfg)
}

// MustRun is Run that panics on error, for experiment drivers with static
// configurations.
func MustRun(cfg Config, prof workload.Profile) Result {
	r, err := Run(cfg, prof)
	if err != nil {
		panic(err)
	}
	return r
}

// Replayer runs the cells of one front-end identity (FrontEndKeyOf):
// its first Run records the front end, and every Run replays that
// recording against its config's memory design. Callers group cells with
// GroupByFrontEnd and use one Replayer per group, dropping it with the
// group, so no recording outlives the cells that share it. A Replayer is
// not safe for concurrent use.
type Replayer struct {
	prof workload.Profile
	fe   *FrontEnd
}

// NewReplayer returns a Replayer for cells running prof.
func NewReplayer(prof workload.Profile) *Replayer { return &Replayer{prof: prof} }

// Run returns Run(cfg, prof) for the Replayer's profile, recording the
// front end only on the first call.
func (r *Replayer) Run(cfg Config) (Result, error) {
	if r.fe == nil {
		fe, err := Record(cfg, r.prof)
		if err != nil {
			return Result{}, err
		}
		r.fe = fe
	}
	return r.fe.Run(cfg)
}

// Recorded reports whether a Run has recorded the front end.
func (r *Replayer) Recorded() bool { return r.fe != nil }

// Run replays the recorded front end against cfg's memory design and
// returns the measurements, exactly as Run(cfg, prof) would. cfg must
// name the hierarchy, seed, run lengths and scale shift the front end was
// recorded with, and may set Check only if the recording did.
func (fe *FrontEnd) Run(cfg Config) (Result, error) {
	cfg = withDefaults(cfg)
	k := FrontEndKeyOf(cfg, fe.key.Prof)
	k.Check = fe.key.Check
	if k != fe.key {
		return Result{}, fmt.Errorf("node: config (%s, seed %d, %d+%d instructions, shift %d) does not match the front end (%s, seed %d, %d+%d, shift %d)",
			cfg.H.Name, cfg.Seed, cfg.WarmupInstructions, cfg.InstructionsPerCore, cfg.ScaleShift,
			fe.key.H.Name, fe.key.Seed, fe.key.Warmup, fe.key.Instr, fe.key.Shift)
	}
	if cfg.Check && !fe.key.Check {
		return Result{}, fmt.Errorf("node: Check needs a front end recorded with Check")
	}
	prof := fe.prof

	scr := scratchPool.Get().(*runScratch)
	defer func() {
		// Nothing built below outlives Run (Result holds only copied
		// stats), so the arena and bookkeeping slices recycle safely. The
		// readers point into the front end: drop them so a pooled scratch
		// never keeps a released front end alive.
		clear(scr.readers)
		scr.arena.Reset()
		scratchPool.Put(scr)
	}()

	rt := &router{chans: scr.chans[:0]}
	for i := 0; i < cfg.H.Channels; i++ {
		ch := memctrl.DefaultConfig(cfg.Replication, cfg.Spec, cfg.Fast)
		ch.ScanScheduler = cfg.ScanScheduler
		ch.CopyErrorRate = cfg.CopyErrorRate
		ch.Seed = cfg.Seed + uint64(i)*7919
		// The writeback cache and Hetero-DMR's write batch are sized
		// relative to the LLC, so they scale with it (ScaleShift).
		ch.WritebackCacheBlocks = 2048 >> cfg.ScaleShift
		if ch.WritebackCacheBlocks < ch.WritebackCacheWays {
			ch.WritebackCacheWays = ch.WritebackCacheBlocks
		}
		if cfg.Replication.Fast() {
			ch.WriteBatch = dramspec.HeteroDMRWriteBatch >> cfg.ScaleShift
			if ch.WriteBatch < dramspec.ConventionalWriteBatch {
				ch.WriteBatch = dramspec.ConventionalWriteBatch
			}
			// Scale the per-transition latencies with the batch so the
			// switch-overhead-to-work ratio matches the full-size system.
			ch.FreqSwitchPS = dramspec.FrequencySwitchLatency >> cfg.ScaleShift
			specT := cfg.Spec.Timing
			ch.SRExitPS = (specT.TRFC + 10*dramspec.Nanosecond) >> cfg.ScaleShift
		}
		chn, err := memctrl.NewChannel(ch)
		if err != nil {
			return Result{}, err
		}
		rt.chans = append(rt.chans, chn)
	}
	scr.chans = rt.chans
	rt.seal()
	scope := cfg.ObsScope
	if scope == "" {
		scope = fmt.Sprintf("%s/%s/%s/seed%d", cfg.H.Name, cfg.Replication, prof.Name, cfg.Seed)
	}
	if cfg.Obs != nil {
		for i, chn := range rt.chans {
			chn.Observe(cfg.Obs, fmt.Sprintf("%s/chan%d", scope, i))
		}
	}

	l3 := cache.NewIn(&scr.arena, l3Config(cfg.H, cfg.ScaleShift))
	l3.CopyFrom(fe.llc)
	// Wire proactive cleaning (the §III-E hook) per channel.
	for _, chn := range rt.chans {
		chn.AttachCleanSource(newChannelCleaner(l3, rt, chn))
	}

	scr.cores = objScratch(scr.cores, cfg.H.Cores)
	scr.readers = objScratch(scr.readers, cfg.H.Cores)
	cores, readers := scr.cores, scr.readers
	l2Latency := l2Config(cfg.H, cfg.ScaleShift).LatencyPS
	for i := range cores {
		cores[i] = cpu.New(cpu.Config{ID: i, L2LatencyPS: l2Latency, L3: l3, Mem: rt, MLP: prof.MLP})
		readers[i] = fe.traces[i].Reader()
	}

	// Interleave cores in virtual-time order, one recorded event per step;
	// snapshot statistics when the last core finishes its warmup. The next
	// core is selected by a binary heap ordered by (Now, index); that total
	// order matches the legacy linear scan exactly (strictly smaller
	// virtual time wins, ties go to the lowest index), and only the root
	// ever changes — Replay advances the root's clock and Finish retires
	// it — so each iteration is one sift-down instead of an O(cores) sweep.
	scr.warmed = boolScratch(scr.warmed, len(cores))
	warmed := scr.warmed
	h := objScratch(scr.coreHeap, len(cores))
	scr.coreHeap = h
	for i := range h {
		h[i] = int32(i)
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		coreSiftDown(h, i, cores)
	}
	warmLeft := len(cores)
	var warmEndPS int64
	warmCore := scr.warmCore[:0]
	var warmMem memctrl.Stats
	var warmActs uint64
	for len(h) > 0 {
		min := int(h[0])
		rec, ops, ok := readers[min].Next()
		if !ok {
			cores[min].Finish()
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
			coreSiftDown(h, 0, cores)
			continue
		}
		cores[min].Replay(rec, ops)
		coreSiftDown(h, 0, cores)
		if warmLeft > 0 && !warmed[min] &&
			cores[min].Stats().Instructions >= cfg.WarmupInstructions {
			warmed[min] = true
			warmLeft--
			if warmLeft == 0 {
				for _, c := range cores {
					if c.Now() > warmEndPS {
						warmEndPS = c.Now()
					}
					warmCore = append(warmCore, c.Stats())
				}
				scr.warmCore = warmCore
				warmMem, warmActs = gather(rt)
			}
		}
	}

	var res Result
	res.Benchmark = prof.Name
	res.Design = cfg.Replication
	res.Hierarchy = cfg.H.Name
	res.CoreStats = make([]cpu.Stats, 0, len(cores))
	for i, c := range cores {
		if c.Now() > res.ExecPS {
			res.ExecPS = c.Now()
		}
		s := subCore(c.Stats(), warmCore[i])
		res.CoreStats = append(res.CoreStats, s)
		res.Instructions += s.Instructions
	}
	res.ExecPS -= warmEndPS
	endMem, endActs := gather(rt)
	res.Mem = subMem(endMem, warmMem)
	res.Activates = endActs - warmActs
	if res.ExecPS > 0 {
		res.IPC = float64(cpu.CyclesToPS(res.Instructions)) / float64(res.ExecPS)
	}
	if res.Instructions > 0 {
		res.DRAMAccessesPerKI = float64(res.Mem.Reads+res.Mem.Writes) /
			(float64(res.Instructions) / 1000)
	}
	if res.ExecPS > 0 {
		res.BandwidthUtil = float64(res.Mem.BusBusyPS) /
			(float64(res.ExecPS) * float64(cfg.H.Channels))
	}
	if total := res.Mem.Reads + res.Mem.Writes; total > 0 {
		res.WriteShare = float64(res.Mem.Writes) / float64(total)
	}

	// Self-checks and metric export run strictly after every measurement
	// above is taken: draining the channels here cannot change the
	// reported result.
	if cfg.Check || cfg.Obs != nil {
		for _, chn := range rt.chans {
			chn.Drain()
		}
	}
	if cfg.Check {
		for i, chn := range rt.chans {
			res.Violations = append(res.Violations,
				chn.CheckConservation(fmt.Sprintf("%s/chan%d", scope, i))...)
		}
		for i, c := range cores {
			res.Violations = append(res.Violations,
				c.CheckConservation(fmt.Sprintf("%s/core%d", scope, i))...)
			res.Violations = append(res.Violations,
				fe.l1s[i].CheckConservation(fmt.Sprintf("%s/core%d/l1", scope, i))...)
			res.Violations = append(res.Violations,
				fe.l2s[i].CheckConservation(fmt.Sprintf("%s/core%d/l2", scope, i))...)
		}
		res.Violations = append(res.Violations, l3.CheckConservation(scope+"/l3")...)
		res.Violations = append(res.Violations, checkWarmup(scope, res)...)
	}
	if cfg.Obs != nil {
		for _, chn := range rt.chans {
			chn.PublishMetrics()
		}
	}
	return res, nil
}

// checkWarmup verifies the warmup-subtraction accounting: the measured
// region's counters must all be non-negative (a negative value means the
// snapshot covered a field the subtraction missed, or vice versa).
func checkWarmup(scope string, res Result) []obs.Violation {
	ck := obs.NewChecker(scope + "/warmup")
	m := res.Mem
	ck.Check(m.BusBusyPS >= 0, "bus-busy-nonnegative", "BusBusyPS=%d", m.BusBusyPS)
	ck.Check(m.FastPS >= 0, "fast-time-nonnegative", "FastPS=%d", m.FastPS)
	ck.Check(m.WriteModePS >= 0, "write-mode-time-nonnegative", "WriteModePS=%d", m.WriteModePS)
	ck.Check(m.ReadLatencySumPS >= 0, "read-latency-nonnegative", "ReadLatencySumPS=%d", m.ReadLatencySumPS)
	ck.CheckEq(int64(m.RowHits+m.RowMisses+m.RowConflicts), int64(m.Reads+m.Writes),
		"measured-row-outcomes==measured-accesses")
	for i, s := range res.CoreStats {
		ck.Check(s.Instructions >= 0, "core-instructions-nonnegative",
			"core %d: %d", i, s.Instructions)
		ck.Check(s.ComputePS >= 0 && s.MemStallPS >= 0 && s.CommPS >= 0,
			"core-time-nonnegative", "core %d: compute=%d stall=%d comm=%d",
			i, s.ComputePS, s.MemStallPS, s.CommPS)
	}
	return ck.Violations()
}

// prefillL3 seeds the LLC with footprint-resident blocks, a quarter of
// them dirty, approximating steady-state occupancy.
func prefillL3(l3 *cache.Cache, footprint uint64, seed uint64) {
	rng := xrand.New(seed ^ 0xF111F111)
	blocks := l3.Config().SizeBytes / l3.Config().BlockBytes
	for i := 0; i < 2*blocks; i++ {
		addr := rng.Uint64n(footprint) &^ 63
		l3.Fill(addr, rng.Bool(0.25), false)
	}
}

// gather sums channel statistics and activate counts.
func gather(rt *router) (memctrl.Stats, uint64) {
	var m memctrl.Stats
	var acts uint64
	for _, chn := range rt.chans {
		s := chn.Stats()
		m.Reads += s.Reads
		m.Writes += s.Writes
		m.BroadcastWrites += s.BroadcastWrites
		m.RowHits += s.RowHits
		m.RowMisses += s.RowMisses
		m.RowConflicts += s.RowConflicts
		m.WriteForwards += s.WriteForwards
		m.ModeSwitches += s.ModeSwitches
		m.FreqSwitches += s.FreqSwitches
		m.DetectedErrors += s.DetectedErrors
		m.Corrections += s.Corrections
		m.CleanedBlocks += s.CleanedBlocks
		m.BusBusyPS += s.BusBusyPS
		m.FastPS += s.FastPS
		m.WriteModePS += s.WriteModePS
		m.ReadLatencySumPS += s.ReadLatencySumPS
		m.ReadCount += s.ReadCount
		for i := 0; i < chn.Config().Ranks; i++ {
			rank := chn.Rank(i)
			for b := 0; b < rank.Banks(); b++ {
				acts += rank.Bank(b).Activates
			}
		}
	}
	return m, acts
}

func subMem(a, b memctrl.Stats) memctrl.Stats {
	return memctrl.Stats{
		Reads:            a.Reads - b.Reads,
		Writes:           a.Writes - b.Writes,
		BroadcastWrites:  a.BroadcastWrites - b.BroadcastWrites,
		RowHits:          a.RowHits - b.RowHits,
		RowMisses:        a.RowMisses - b.RowMisses,
		RowConflicts:     a.RowConflicts - b.RowConflicts,
		WriteForwards:    a.WriteForwards - b.WriteForwards,
		ModeSwitches:     a.ModeSwitches - b.ModeSwitches,
		FreqSwitches:     a.FreqSwitches - b.FreqSwitches,
		DetectedErrors:   a.DetectedErrors - b.DetectedErrors,
		Corrections:      a.Corrections - b.Corrections,
		CleanedBlocks:    a.CleanedBlocks - b.CleanedBlocks,
		BusBusyPS:        a.BusBusyPS - b.BusBusyPS,
		FastPS:           a.FastPS - b.FastPS,
		WriteModePS:      a.WriteModePS - b.WriteModePS,
		ReadLatencySumPS: a.ReadLatencySumPS - b.ReadLatencySumPS,
		ReadCount:        a.ReadCount - b.ReadCount,
	}
}

func subCore(a, b cpu.Stats) cpu.Stats {
	return cpu.Stats{
		Instructions:    a.Instructions - b.Instructions,
		ComputePS:       a.ComputePS - b.ComputePS,
		MemStallPS:      a.MemStallPS - b.MemStallPS,
		CommPS:          a.CommPS - b.CommPS,
		L1Misses:        a.L1Misses - b.L1Misses,
		L2Misses:        a.L2Misses - b.L2Misses,
		L3Misses:        a.L3Misses - b.L3Misses,
		DemandReads:     a.DemandReads - b.DemandReads,
		DemandWrites:    a.DemandWrites - b.DemandWrites,
		Prefetches:      a.Prefetches - b.Prefetches,
		IssuedMemReads:  a.IssuedMemReads - b.IssuedMemReads,
		RetiredMemReads: a.RetiredMemReads - b.RetiredMemReads,
	}
}
