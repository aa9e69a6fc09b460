// Package node assembles cores, caches, and memory channels into the two
// simulated machines of Tables III-IV and runs one benchmark on one memory
// design, producing the per-run measurements the evaluation figures
// consume (normalized performance, DRAM accesses per instruction,
// bandwidth utilization, write share, and energy-model inputs).
package node

import (
	"fmt"
	"reflect"

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

	// Check enables the conservation self-checks: after the measured
	// region the channels are drained and every component's accounting
	// invariants are verified; failures land in Result.Violations. The
	// checks run after all measurements are taken, so they cannot perturb
	// reported results.
	Check bool
	// Obs, when non-nil, receives per-channel DRAM command counts,
	// queue-depth histograms, and mode/frequency-switch events, scoped
	// under hierarchy/design/benchmark/seedN.
	Obs *obs.Registry
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

	// Mem sums every counter and every *PS time over all channels, each
	// time measured on its channel's clock. A per-channel share of the
	// measured region is X / (H.Channels·ExecPS), as BandwidthUtil
	// computes for BusBusyPS.
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
	mask  uint64 // len(chans)-1: record refuses channel counts that are not powers of two
}

// channelInterleaveShift is log2 of the 1KB per-channel interleave
// granularity.
const channelInterleaveShift = 10

// homeChannel returns the index of the channel that homes addr among
// mask+1 channels.
func homeChannel(addr, mask uint64) uint64 { return addr >> channelInterleaveShift & mask }

func (r *router) pick(addr uint64) *memctrl.Channel {
	return r.chans[homeChannel(addr, r.mask)]
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
	match func(addr uint64) bool // built once; avoids a closure per write mode
}

// newChannelCleaner returns the cleaner of channel i of mask+1. A single
// channel homes every block, so its match is nil (match everything),
// which selects the identical candidate set without a routing probe per
// dirty line.
func newChannelCleaner(l3 *cache.Cache, i, mask uint64) *channelCleaner {
	cc := &channelCleaner{l3: l3}
	if mask != 0 {
		cc.match = func(addr uint64) bool { return homeChannel(addr, mask) == i }
	}
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

// FrontEndKey is the identity of a node front end: everything a
// recording reads, after defaults are applied. Cells with equal keys can
// share one recording whatever their memory designs, checked or not. The
// key is comparable, so it serves as a map key and as a parallel.GroupBy
// key.
type FrontEndKey struct {
	H             Hierarchy
	Prof          workload.Profile
	Seed          uint64
	Instr, Warmup int64
	Shift         uint
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
	}
}

// frontEnd is the memory-design-independent half of a node simulation:
// the prefilled LLC and every core's recorded private front end (see
// cpu.Recorder). It is a pure function of its FrontEndKey, so one
// recording serves every memory design of that cell: replay runs it
// against a copy of the LLC and the design's own memory channels. A
// frontEnd is read-only once recorded, so replays into distinct LLCs
// may run concurrently.
type frontEnd struct {
	key     FrontEndKey
	prof    workload.Profile // key.Prof with footprints scaled
	llc     *cache.Cache
	traces  []cpu.Trace
	private [][]obs.Violation // per core: its L1/L2 violations, sources like core3/l1
}

// record simulates the design-independent front end of cfg's machine
// running prof. Only the fields FrontEndKeyOf reads matter. The private
// caches never change once a core is recorded, so their conservation
// checks run then and the caches are dropped. It returns an error for
// an invalid hierarchy, for a cache level that cfg.ScaleShift leaves
// without a valid geometry (cache.Config.Validate), and for a profile
// that, scaled to cfg.ScaleShift, fails workload.Profile.Validate.
func record(cfg Config, prof workload.Profile) (*frontEnd, error) {
	if n := cfg.H.Channels; cfg.H.Cores <= 0 || n <= 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("node: invalid hierarchy %+v: needs cores and a power-of-two channel count", cfg.H)
	}
	cfg = withDefaults(cfg)
	for _, level := range []cache.Config{l1Config(), l2Config(cfg.H, cfg.ScaleShift), l3Config(cfg.H, cfg.ScaleShift)} {
		if err := level.Validate(); err != nil {
			return nil, fmt.Errorf("node: %s at scale shift %d: %w", cfg.H.Name, cfg.ScaleShift, err)
		}
	}
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

	fe := &frontEnd{
		key:     key,
		prof:    prof,
		traces:  make([]cpu.Trace, cfg.H.Cores),
		private: make([][]obs.Violation, cfg.H.Cores),
	}
	// Prefill the shared LLC to steady-state occupancy so dirty evictions
	// reach DRAM during the measured region (a cold LLC of this size would
	// otherwise absorb every writeback).
	fe.llc = cache.New(l3Config(cfg.H, cfg.ScaleShift))
	prefillL3(fe.llc, prof.FootprintBytes, cfg.Seed)

	// One recorder and one trace buffer serve every core; each core's
	// trace is copied out at its exact size.
	var rec cpu.Recorder
	var tr cpu.Trace
	instr := cfg.WarmupInstructions + cfg.InstructionsPerCore
	for i := range fe.traces {
		l1 := cache.New(l1Config())
		l2 := cache.New(l2Config(cfg.H, cfg.ScaleShift))
		rec.Reset(l1, l2)
		// Each core runs one MPI rank of the benchmark: same profile,
		// distinct address-space slice via the seed.
		stream := prof.NewStream(cfg.Seed+uint64(i)*104729, instr)
		tr.Reset()
		for {
			ev, ok := stream.Next()
			if !ok {
				break
			}
			rec.Record(ev, &tr)
		}
		fe.traces[i] = tr.Clone()
		fe.private[i] = append(l1.CheckConservation(fmt.Sprintf("core%d/l1", i)),
			l2.CheckConservation(fmt.Sprintf("core%d/l2", i))...)
	}
	return fe, nil
}

// Run executes one benchmark on one machine+design and returns the
// measurements. It returns an error on invalid configuration.
func Run(cfg Config, prof workload.Profile) (Result, error) {
	return NewReplayer(prof).Run(cfg)
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
// recording against its config's memory design, refilling the
// Replayer's one LLC from the recorded one first. Callers group cells
// by FrontEndKeyOf and use one Replayer per group, dropping it with
// the group, so no recording outlives the cells that share it. A
// Replayer is not safe for concurrent use.
type Replayer struct {
	prof workload.Profile
	fe   *frontEnd
	l3   *cache.Cache // the LLC every replay runs in
}

// NewReplayer returns a Replayer for cells running prof.
func NewReplayer(prof workload.Profile) *Replayer { return &Replayer{prof: prof} }

// Run returns Run(cfg, prof) for the Replayer's profile, recording the
// front end only on the first call. A memory design whose channels
// cannot be built is refused before anything is recorded.
func (r *Replayer) Run(cfg Config) (Result, error) {
	if r.fe == nil {
		full := withDefaults(cfg)
		for i := 0; i < full.H.Channels; i++ {
			if err := channelConfig(full, i).Validate(); err != nil {
				return Result{}, err
			}
		}
		fe, err := record(cfg, r.prof)
		if err != nil {
			return Result{}, err
		}
		r.fe, r.l3 = fe, cache.New(fe.llc.Config())
	}
	return r.fe.replay(cfg, r.l3)
}

// Recorded reports whether a Run has recorded the front end.
func (r *Replayer) Recorded() bool { return r.fe != nil }

// channelConfig derives channel i of cfg's memory design (cfg with
// defaults applied). The writeback cache and Hetero-DMR's write batch
// are sized relative to the LLC, so they scale with it (ScaleShift).
func channelConfig(cfg Config, i int) memctrl.Config {
	ch := memctrl.DefaultConfig(cfg.Replication, cfg.Spec, cfg.Fast)
	ch.CopyErrorRate = cfg.CopyErrorRate
	ch.Seed = cfg.Seed + uint64(i)*7919
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
		ch.SRExitPS = (cfg.Spec.Timing.TRFC + 10*dramspec.Nanosecond) >> cfg.ScaleShift
	}
	return ch
}

// replay runs the recorded front end against cfg's memory design in l3,
// which it first refills from the recorded LLC, and returns the
// measurements, exactly as Run(cfg, prof) would. cfg must name the
// hierarchy, seed, run lengths and scale shift the front end was
// recorded with, and l3 must have the recorded LLC's geometry.
func (fe *frontEnd) replay(cfg Config, l3 *cache.Cache) (Result, error) {
	cfg = withDefaults(cfg)
	if FrontEndKeyOf(cfg, fe.key.Prof) != fe.key {
		return Result{}, fmt.Errorf("node: config (%s, seed %d, %d+%d instructions, shift %d) does not match the front end (%s, seed %d, %d+%d, shift %d)",
			cfg.H.Name, cfg.Seed, cfg.WarmupInstructions, cfg.InstructionsPerCore, cfg.ScaleShift,
			fe.key.H.Name, fe.key.Seed, fe.key.Warmup, fe.key.Instr, fe.key.Shift)
	}
	prof := fe.prof

	// Each channel cleans (the §III-E hook) only the LLC blocks it homes.
	rt := &router{chans: make([]*memctrl.Channel, 0, cfg.H.Channels), mask: uint64(cfg.H.Channels - 1)}
	for i := 0; i < cfg.H.Channels; i++ {
		chCfg := channelConfig(cfg, i)
		chCfg.CleanSource = newChannelCleaner(l3, uint64(i), rt.mask)
		chn, err := memctrl.NewChannel(chCfg)
		if err != nil {
			return Result{}, err
		}
		rt.chans = append(rt.chans, chn)
	}
	scope := fmt.Sprintf("%s/%s/%s/seed%d", cfg.H.Name, cfg.Replication, prof.Name, cfg.Seed)
	if cfg.Obs != nil {
		for i, chn := range rt.chans {
			chn.Observe(cfg.Obs, fmt.Sprintf("%s/chan%d", scope, i))
		}
	}

	l3.CopyFrom(fe.llc)

	cores := make([]*cpu.Core, cfg.H.Cores)
	readers := make([]cpu.Reader, cfg.H.Cores)
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
	warmed := make([]bool, len(cores))
	h := make([]int32, len(cores))
	for i := range h {
		h[i] = int32(i)
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		coreSiftDown(h, i, cores)
	}
	warmLeft := len(cores)
	var warmEndPS int64
	var warmCore []cpu.Stats
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
		s := addFields(c.Stats(), warmCore[i], -1)
		res.CoreStats = append(res.CoreStats, s)
		res.Instructions += s.Instructions
	}
	res.ExecPS -= warmEndPS
	endMem, endActs := gather(rt)
	res.Mem = addFields(endMem, warmMem, -1)
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
			for _, v := range fe.private[i] {
				v.Source = scope + "/" + v.Source
				res.Violations = append(res.Violations, v)
			}
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
// region's counters must all be non-negative (a negative value means a
// counter ran backwards between the warmup snapshot and the end).
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
		m = addFields(m, chn.Stats(), 1)
		for i := 0; i < chn.Config().Ranks; i++ {
			rank := chn.Rank(i)
			for b := 0; b < rank.Banks(); b++ {
				acts += rank.Bank(b).Activates
			}
		}
	}
	return m, acts
}

// addFields returns a + sign*b field by field. T must be a flat struct of
// int64 and uint64 counters (memctrl.Stats, cpu.Stats): every field is
// covered by construction, and a field of any other kind panics naming
// it rather than being skipped.
func addFields[T any](a, b T, sign int64) T {
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < va.NumField(); i++ {
		switch f := va.Field(i); f.Kind() {
		case reflect.Int64:
			f.SetInt(f.Int() + sign*vb.Field(i).Int())
		case reflect.Uint64:
			f.SetUint(f.Uint() + uint64(sign)*vb.Field(i).Uint())
		default:
			panic(fmt.Sprintf("node: %s.%s is a %s, not an int64 or uint64 counter",
				va.Type(), va.Type().Field(i).Name, f.Kind()))
		}
	}
	return a
}
