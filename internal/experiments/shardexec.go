package experiments

import (
	"repro/internal/montecarlo"
	"repro/internal/shard"
)

// mcUnitShards is how many fixed-size Monte-Carlo RNG shards one
// dispatch unit covers: units stay few enough to amortize the HTTP
// round trip but plentiful enough to spread across a small fleet
// (100k trials / (16·1024) ≈ 7 units per level/policy call).
const mcUnitShards = 16

// monteCarlo runs one Monte-Carlo experiment, fanning shard-aligned
// trial ranges out to the worker fleet when one is configured. Each range
// is positionally seeded (montecarlo.*Range), committed into its slot
// of the margins slice, and bit-identical to the in-process loop, so
// Groups/FractionAtLeast render the same bytes either way.
func (s *Suite) monteCarlo(level string, cfg montecarlo.Config, sel montecarlo.Selection) montecarlo.Result {
	if s.opt.Shard == nil {
		if level == shard.LevelChannel {
			return montecarlo.ChannelLevel(cfg, sel)
		}
		return montecarlo.NodeLevel(cfg, sel)
	}
	step := mcUnitShards * montecarlo.ShardTrials
	var units []shard.Unit
	for lo := 0; lo < cfg.Trials; lo += step {
		hi := lo + step
		if hi > cfg.Trials {
			hi = cfg.Trials
		}
		units = append(units, shard.NewMCUnit(s.opt.CacheVersion, cfg, sel, level, lo, hi))
	}
	results := s.opt.Shard.Run(units)
	margins := make([]float64, cfg.Trials)
	for i, r := range results {
		u := units[i].MC
		vals, err := shard.DecodeMargins(r.Payload)
		if err != nil || len(vals) != u.Hi-u.Lo {
			// Undecodable payload: recompute the range locally — the
			// positional write keeps the merge exact regardless.
			if level == shard.LevelChannel {
				vals = montecarlo.ChannelLevelRange(cfg, sel, u.Lo, u.Hi)
			} else {
				vals = montecarlo.NodeLevelRange(cfg, sel, u.Lo, u.Hi)
			}
		}
		copy(margins[u.Lo:u.Hi], vals)
	}
	return montecarlo.Result{Margins: margins}
}
