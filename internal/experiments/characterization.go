package experiments

import (
	"fmt"

	"repro/internal/dramspec"
	"repro/internal/margin"
	"repro/internal/parallel"
	"repro/internal/report"
	"repro/internal/stats"
)

// Table1 reproduces Table I: the scale of the study versus prior
// characterization work.
func (s *Suite) Table1() *report.Table {
	t := report.New("Table I — scale of the study",
		"study", "DRAM type", "#modules", "#chips", "margin studied")
	p := s.Population()
	t.AddRowf("This reproduction", "DDR4 RDIMM", len(p.Modules), p.TotalChips(), "frequency")
	t.AddRow("Lee et al. [60]", "DDR3 SO-DIMM", "96", "768", "latency")
	t.AddRow("Gao et al. [56]", "DDR3 SO-DIMM", "32", "416", "latency")
	t.AddRow("Chang et al. [47]", "DDR3 SO-DIMM", "30", "240", "latency")
	t.AddRow("Patel et al. [65]", "LPDDR4", "N/A", "368", "latency")
	t.AddRow("Liu et al. [62]", "DDR3 SO-DIMM", "34", "248", "latency")
	t.AddRow("David et al. [50]", "DDR3 UDIMM", "8", "64", "voltage")
	return t
}

// Fig1 reproduces Fig 1: the fraction of jobs whose every node stays
// under 25% / 50% memory utilization for the job's whole lifetime.
func (s *Suite) Fig1() *report.Table {
	f := s.Fractions()
	t := report.New("Fig 1 — job memory utilization (Grizzly-like trace)",
		"threshold", "fraction of jobs", "paper")
	t.AddRow("<25% on every node", fmtPct(f.Under25), "~43%")
	t.AddRow("<50% on every node", fmtPct(f.Under50), "~62%")
	t.Note("%d synthetic jobs analyzed", s.opt.jobCount())
	return t
}

// Fig2 reproduces Fig 2: the distribution of measured frequency margins
// across the 119 modules.
func (s *Suite) Fig2() *report.Table {
	bench := margin.NewBench(23, s.opt.Seed)
	t := report.New("Fig 2 — frequency margins across 119 modules",
		"margin (MT/s)", "brand A", "brand B", "brand C", "brand D")
	counts := map[margin.Brand]map[int]int{}
	for _, b := range []margin.Brand{margin.BrandA, margin.BrandB, margin.BrandC, margin.BrandD} {
		counts[b] = map[int]int{}
	}
	maxM := 0
	for _, m := range s.Population().Modules {
		g := int(bench.MeasureMargin(&m, false))
		counts[m.Brand][g]++
		if g > maxM {
			maxM = g
		}
	}
	for g := 0; g <= maxM; g += int(dramspec.BIOSStep) {
		t.AddRowf(g,
			counts[margin.BrandA][g], counts[margin.BrandB][g],
			counts[margin.BrandC][g], counts[margin.BrandD][g])
	}
	t.Note("most common margin among major brands should be 800 MT/s")
	return t
}

// Fig3 reproduces Fig 3: the impact of brand, chips/rank, and
// manufacturer-specified data rate on frequency margin.
func (s *Suite) Fig3() *report.Table {
	bench := margin.NewBench(23, s.opt.Seed)
	pop := s.Population()
	measure := func(ms []margin.Module) []float64 {
		out := make([]float64, len(ms))
		for i := range ms {
			out[i] = float64(bench.MeasureMargin(&ms[i], false))
		}
		return out
	}
	t := report.New("Fig 3 — impact of module factors on margin (MT/s)",
		"group", "n", "mean", "stdev", "ci99", "paper")
	addGroup := func(name string, ms []margin.Module, paper string) {
		sm := stats.Summarize(measure(ms))
		t.AddRow(name, fmt.Sprint(sm.N), fmt.Sprintf("%.0f", sm.Mean),
			fmt.Sprintf("%.0f", sm.StdDev), fmt.Sprintf("±%.0f", sm.CI99), paper)
	}
	for _, b := range []margin.Brand{margin.BrandA, margin.BrandB, margin.BrandC} {
		addGroup("brand "+b.String(), pop.ByBrand(b), "~770 mean, similar across A-C")
	}
	addGroup("brand D", pop.ByBrand(margin.BrandD), "213 mean (2.6x lower)")
	addGroup("9 chips/rank (A-C)", pop.Filter(func(m margin.Module) bool {
		return m.ChipsPerRank == 9 && m.Brand != margin.BrandD
	}), "stdev 124, min 600")
	addGroup("18 chips/rank (A-C)", pop.Filter(func(m margin.Module) bool {
		return m.ChipsPerRank == 18 && m.Brand != margin.BrandD
	}), "stdev 2.1x of 9-chip")
	addGroup("2400MT/s (A-C)", pop.Filter(func(m margin.Module) bool {
		return m.SpecRate == dramspec.DDR4_2400 && m.Brand != margin.BrandD
	}), "967 mean")
	addGroup("3200MT/s (A-C)", pop.Filter(func(m margin.Module) bool {
		return m.SpecRate == dramspec.DDR4_3200 && m.Brand != margin.BrandD
	}), "679 mean (platform-capped)")
	return t
}

// Fig4 reproduces Fig 4: factors with little impact on margin.
func (s *Suite) Fig4() *report.Table {
	bench := margin.NewBench(23, s.opt.Seed)
	pop := s.Population()
	mean := func(keep func(m margin.Module) bool) (float64, int) {
		ms := pop.Filter(func(m margin.Module) bool { return m.Brand != margin.BrandD && keep(m) })
		var xs []float64
		for i := range ms {
			xs = append(xs, float64(bench.MeasureMargin(&ms[i], false)))
		}
		return stats.Mean(xs), len(ms)
	}
	t := report.New("Fig 4 — factors with little impact (A-C mean margin, MT/s)",
		"factor", "group", "n", "mean")
	for _, c := range []margin.Condition{margin.ConditionNew, margin.ConditionInProduction, margin.ConditionRefurbished} {
		m, n := mean(func(mm margin.Module) bool { return mm.Condition == c })
		t.AddRowf("condition", c.String(), n, fmt.Sprintf("%.0f", m))
	}
	for _, d := range []int{4, 8, 16} {
		m, n := mean(func(mm margin.Module) bool { return mm.DensityGbit == d })
		t.AddRowf("chip density", fmt.Sprintf("%dGb", d), n, fmt.Sprintf("%.0f", m))
	}
	for _, y := range []int{2017, 2018, 2019, 2020} {
		m, n := mean(func(mm margin.Module) bool { return mm.MfgYear == y })
		t.AddRowf("mfg year", fmt.Sprint(y), n, fmt.Sprintf("%.0f", m))
	}
	t.Note("paper: aging, density, ranks/module, and date have little impact")
	return t
}

// Table2 reproduces Table II: the four memory settings.
func (s *Suite) Table2() *report.Table {
	t := report.New("Table II — memory settings for exploiting margins",
		"setting", "data rate", "tRCD", "tRP", "tRAS", "tREFI")
	for _, set := range []dramspec.Setting{
		dramspec.SettingSpec, dramspec.SettingLatencyMargin,
		dramspec.SettingFrequencyMargin, dramspec.SettingFreqLatMargin,
	} {
		cfg := dramspec.TableII(set, dramspec.DDR4_3200, 800)
		t.AddRow(set.String(), cfg.Rate.String(),
			fmt.Sprintf("%.2fns", float64(cfg.Timing.TRCD)/1000),
			fmt.Sprintf("%.2fns", float64(cfg.Timing.TRP)/1000),
			fmt.Sprintf("%.1fns", float64(cfg.Timing.TRAS)/1000),
			fmt.Sprintf("%.1fus", float64(cfg.Timing.TREFI)/1e6))
	}
	return t
}

// Fig6 reproduces Fig 6: module error rates when exploiting margins, at
// 23°C and 45°C ambient, and the full-system halving.
func (s *Suite) Fig6() *report.Table {
	pop := s.Population()
	t := report.New("Fig 6 — one-hour stress-test errors beyond margin",
		"condition", "modules tested", "with errors", "total CE", "total UE", "no-boot")
	// Each row owns its own bench (and therefore its own RNG stream,
	// seeded by ambient as before), so the five campaigns are independent
	// and fan out on the worker pool; rows are appended in paper order
	// afterwards.
	rows := []struct {
		name    string
		ambient int
		setting dramspec.Setting
		full    bool
	}{
		{"freq margin, 23C", 23, dramspec.SettingFrequencyMargin, false},
		{"freq margin, 45C", 45, dramspec.SettingFrequencyMargin, false},
		{"freq+lat margin, 23C", 23, dramspec.SettingFreqLatMargin, false},
		{"freq+lat margin, 45C", 45, dramspec.SettingFreqLatMargin, false},
		{"freq+lat, full system, 23C", 23, dramspec.SettingFreqLatMargin, true},
	}
	type rowResult struct {
		tested, withErr, noBoot int
		ce, ue                  uint64
	}
	results := parallel.MapN(s.opt.Workers, len(rows), func(i int) rowResult {
		spec := rows[i]
		bench := margin.NewBench(spec.ambient, s.opt.Seed+uint64(spec.ambient))
		var res rowResult
		for _, m := range pop.MajorBrands() {
			if spec.ambient >= 45 && m.Condition == margin.ConditionInProduction {
				continue // A8-A31 were not placed in the thermal chamber
			}
			res.tested++
			r := bench.StressTest(&m, spec.setting, spec.full)
			if !r.Booted {
				res.noBoot++
				continue
			}
			if r.Total() > 0 {
				res.withErr++
			}
			res.ce += r.CorrectedErrors
			res.ue += r.UncorrectedErrors
		}
		return res
	})
	for i, r := range results {
		t.AddRowf(rows[i].name, r.tested, r.withErr, r.ce, r.ue, r.noBoot)
	}
	t.Note("paper: 45C errors ~4x of 23C (2x under freq+lat); full system halves per-module rate")
	return t
}

// Fig1Weights exposes the bucket weights used by Fig 12's weighted
// average.
func (s *Suite) Fig1Weights() (w25, w50, wOver float64) {
	return s.Fractions().Weights()
}
