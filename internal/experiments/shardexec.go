package experiments

import (
	"fmt"

	"repro/internal/montecarlo"
	"repro/internal/shard"
)

// mcUnitShards is how many fixed-size Monte-Carlo RNG shards one
// dispatch unit covers: units stay few enough to amortize the HTTP
// round trip but plentiful enough to spread across a small fleet
// (100k trials / (16·1024) ≈ 7 units per level/policy call).
const mcUnitShards = 16

// monteCarlo runs one Monte-Carlo experiment as shard-aligned trial
// ranges (shard.NewMCUnit) through materialize, so a range runs on the
// fleet or in this process and replays from the persistent store like a
// node cell. Ranges are positionally seeded (montecarlo.*Range) and
// concatenated in trial order, so the margins, and the bytes
// Groups/FractionAtLeast render from them, are the same on every path.
func (s *Suite) monteCarlo(level string, cfg montecarlo.Config, sel montecarlo.Selection) montecarlo.Result {
	step := mcUnitShards * montecarlo.ShardTrials
	var units []shard.Unit
	for lo := 0; lo < cfg.Trials; lo += step {
		hi := lo + step
		if hi > cfg.Trials {
			hi = cfg.Trials
		}
		units = append(units, shard.NewMCUnit(s.opt.CacheVersion, cfg, sel, level, lo, hi))
	}
	ranges, _ := materialize(s, units, decodeRange)
	margins := make([]float64, 0, cfg.Trials)
	for _, r := range ranges {
		margins = append(margins, r...)
	}
	return montecarlo.Result{Margins: margins}
}

// decodeRange decodes a Monte-Carlo range payload and checks that it
// holds one margin per trial of the unit's range.
func decodeRange(u shard.Unit, payload []byte) ([]float64, error) {
	vals, err := shard.DecodeMargins(payload)
	if err == nil && len(vals) != u.MC.Hi-u.MC.Lo {
		err = fmt.Errorf("%d margins for trials [%d, %d)", len(vals), u.MC.Lo, u.MC.Hi)
	}
	return vals, err
}
