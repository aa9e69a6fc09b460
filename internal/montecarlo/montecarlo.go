// Package montecarlo implements the §III-D Monte-Carlo estimation of
// channel-level and node-level memory frequency margins (Fig 11): module
// margins are drawn from a normal distribution fitted to the 9-chip/rank
// characterization data, channels pick a module to operate unsafely fast
// (margin-aware: the highest-margin module; margin-unaware: the first
// module), and a node's margin is the minimum across its channels.
package montecarlo

import (
	"repro/internal/dramspec"
	"repro/internal/margin"
	"repro/internal/parallel"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// Config sizes the simulated machines per the paper.
type Config struct {
	ModulesPerChannel int // 2 in the paper
	ChannelsPerNode   int // 12 in the paper
	Trials            int
	// MeanMTs/StdevMTs parameterize the normal distribution of module
	// margins (from the 9-chip/rank modules in Fig 2a).
	MeanMTs, StdevMTs float64
	// SpecRate + cap bound observable margins like the testbed.
	SpecRate dramspec.DataRate
	Seed     uint64
}

// DefaultConfig derives the distribution from a generated population,
// restricted to 9-chip/rank major-brand modules as §III-D does.
func DefaultConfig(seed uint64) Config {
	pop := margin.GeneratePopulation(seed)
	// Fit the latent margin distribution of the 9-chip/rank major-brand
	// modules at the top speed grade — the parts §II-B argues resemble
	// upcoming DDR5 server modules. The latent (pre-cap) values are used
	// because the 4000 MT/s ceiling is a property of the characterization
	// testbed, which the Monte Carlo reapplies itself via drawModule.
	nine := pop.Filter(func(m margin.Module) bool {
		return m.ChipsPerRank == 9 && m.Brand != margin.BrandD
	})
	// De-trend the speed-grade effect (slower grades carry larger
	// margins) so every 9-chip/rank module contributes to the fit at the
	// 3200 MT/s reference grade.
	xs := make([]float64, len(nine))
	for i := range nine {
		xs[i] = nine[i].TrueMarginMTs -
			0.30*float64(dramspec.DDR4_3200-nine[i].SpecRate)
	}
	return Config{
		ModulesPerChannel: 2,
		ChannelsPerNode:   12,
		Trials:            100_000,
		MeanMTs:           stats.Mean(xs),
		StdevMTs:          stats.StdDev(xs),
		SpecRate:          dramspec.DDR4_3200,
		Seed:              seed,
	}
}

// Selection chooses which module in a channel operates unsafely fast.
type Selection int

// Selection policies from §III-D1.
const (
	// MarginAware picks the module with the highest margin.
	MarginAware Selection = iota
	// MarginUnaware picks the first module regardless of margin.
	MarginUnaware
)

// String names the policy.
func (s Selection) String() string {
	if s == MarginAware {
		return "margin-aware"
	}
	return "margin-unaware"
}

// Result is the empirical distribution of margins in MT/s.
type Result struct {
	Margins []float64
}

// FractionAtLeast returns the fraction of trials with margin >= mts.
func (r Result) FractionAtLeast(mts float64) float64 {
	return stats.FractionAtLeast(r.Margins, mts)
}

// drawModule samples one module's observed margin: a normal draw
// quantized to BIOS steps and clamped to [0, cap-spec].
func drawModule(rng *xrand.Rand, cfg Config) float64 {
	v := rng.Normal(cfg.MeanMTs, cfg.StdevMTs)
	if v < 0 {
		v = 0
	}
	maxObs := float64(dramspec.PlatformCap - cfg.SpecRate)
	if v > maxObs {
		v = maxObs
	}
	steps := int(v) / int(dramspec.BIOSStep)
	return float64(steps * int(dramspec.BIOSStep))
}

// channelMargin simulates one channel: the chosen module's margin.
func channelMargin(rng *xrand.Rand, cfg Config, sel Selection) float64 {
	best := -1.0
	for i := 0; i < cfg.ModulesPerChannel; i++ {
		m := drawModule(rng, cfg)
		if sel == MarginUnaware {
			if i == 0 {
				best = m
			}
			continue
		}
		if m > best {
			best = m
		}
	}
	return best
}

// ShardTrials is the fixed trial count per RNG shard. Shard s always
// covers trials [s*ShardTrials, (s+1)*ShardTrials) and owns the child
// generator xrand.NewAt(seed+stream, s), so the empirical distribution is
// a pure function of (Config, Selection) — independent of the worker
// count and of goroutine scheduling. Exported so the cross-process
// sharding layer (internal/shard) can carve the trial space into
// shard-aligned ranges whose draws match an in-process run exactly.
const ShardTrials = 1024

// channelShard fills out (a subslice of one shard's trial range) with
// channel margins drawn from shard s's positional RNG. A short out only
// truncates the tail of the shard: draws are consumed in trial order, so
// prefixes are stable.
func channelShard(cfg Config, sel Selection, s int, out []float64) {
	rng := xrand.NewAt(cfg.Seed+uint64(sel), uint64(s))
	for t := range out {
		out[t] = channelMargin(rng, cfg, sel)
	}
}

// nodeShard is channelShard's node-level counterpart on the offset seed
// stream: each trial takes the minimum margin across the node's channels.
func nodeShard(cfg Config, sel Selection, s int, out []float64) {
	rng := xrand.NewAt(cfg.Seed+1000+uint64(sel), uint64(s))
	for t := range out {
		min := -1.0
		for c := 0; c < cfg.ChannelsPerNode; c++ {
			m := channelMargin(rng, cfg, sel)
			if min < 0 || m < min {
				min = m
			}
		}
		out[t] = min
	}
}

// ChannelLevel runs the Fig 11 channel-level experiment over every trial
// in one call: the library form of the ChannelLevelRange units the
// experiment suite runs. Trials are sharded over GOMAXPROCS goroutines:
// each shard seeds its own child RNG positionally and writes into a
// disjoint range of the pre-sized Margins slice, so no synchronization
// beyond the join is needed and the output is bit-identical to a
// sequential run.
func ChannelLevel(cfg Config, sel Selection) Result {
	return Result{Margins: trials(channelShard, cfg, sel, 0, 0, cfg.Trials)}
}

// NodeLevel runs the Fig 11 node-level experiment: a node's margin is the
// minimum of its channels' margins because interleaving makes the slowest
// channel the bandwidth bottleneck (§III-D2). Sharding follows
// ChannelLevel's scheme on an offset seed stream.
func NodeLevel(cfg Config, sel Selection) Result {
	return Result{Margins: trials(nodeShard, cfg, sel, 0, 0, cfg.Trials)}
}

// ChannelLevelRange computes channel-level margins for trials [lo, hi)
// only — the work-unit form internal/shard computes, in process or on a
// worker. lo must be ShardTrials-aligned (a range starts at a shard
// boundary so its first RNG is fresh); hi may truncate the final shard,
// which only drops tail draws. Concatenating the ranges of any shard-aligned
// partition of [0, Trials) reproduces ChannelLevel bit for bit.
func ChannelLevelRange(cfg Config, sel Selection, lo, hi int) []float64 {
	return trials(channelShard, cfg, sel, 1, lo, hi)
}

// NodeLevelRange is ChannelLevelRange's node-level counterpart.
func NodeLevelRange(cfg Config, sel Selection, lo, hi int) []float64 {
	return trials(nodeShard, cfg, sel, 1, lo, hi)
}

// trials fills trials [lo, hi) shard by shard, each shard's margins
// drawn by draw (channelShard or nodeShard), on parallel.ForEach with
// the given worker count (0 = GOMAXPROCS). Shard s always covers trials
// [s*ShardTrials, (s+1)*ShardTrials), so the output is independent of
// the worker count.
func trials(draw func(Config, Selection, int, []float64), cfg Config, sel Selection, workers, lo, hi int) []float64 {
	validate(cfg)
	checkRange(cfg, lo, hi)
	out := make([]float64, hi-lo)
	parallel.ForEach(workers, parallel.Chunks(hi-lo, ShardTrials), func(c int) {
		a, b := parallel.ChunkRange(c, hi-lo, ShardTrials)
		draw(cfg, sel, lo/ShardTrials+c, out[a:b])
	})
	return out
}

func checkRange(cfg Config, lo, hi int) {
	if lo < 0 || hi > cfg.Trials || lo >= hi || lo%ShardTrials != 0 {
		panic("montecarlo: range must be shard-aligned and inside [0, Trials)")
	}
}

// NodeGroups summarizes a node-level result into the §III-D3 scheduler
// groups: fractions of nodes with >= 800, >= 600 (but < 800), and < 600
// MT/s margins.
type NodeGroups struct {
	At800, At600, Below float64
}

// Groups computes the group shares.
func (r Result) Groups() NodeGroups {
	at8 := r.FractionAtLeast(800)
	at6 := r.FractionAtLeast(600)
	return NodeGroups{At800: at8, At600: at6 - at8, Below: 1 - at6}
}

func validate(cfg Config) {
	if cfg.ModulesPerChannel <= 0 || cfg.ChannelsPerNode <= 0 || cfg.Trials <= 0 {
		panic("montecarlo: non-positive configuration")
	}
	if cfg.StdevMTs < 0 || cfg.MeanMTs < 0 {
		panic("montecarlo: negative distribution parameters")
	}
}
