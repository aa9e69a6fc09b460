package margin

import (
	"math"
	"testing"

	"repro/internal/dramspec"
	"repro/internal/stats"
)

func pop(t *testing.T) *Population {
	t.Helper()
	return GeneratePopulation(1)
}

func marginsOf(b *Bench, ms []Module) []float64 {
	out := make([]float64, len(ms))
	for i := range ms {
		out[i] = float64(b.MeasureMargin(&ms[i], false))
	}
	return out
}

func TestPopulationCensus(t *testing.T) {
	p := pop(t)
	if len(p.Modules) != NumModules {
		t.Fatalf("population size %d, want %d", len(p.Modules), NumModules)
	}
	if got := p.TotalChips(); got != NumChipsTotal {
		t.Errorf("chip census %d, want %d (Table I)", got, NumChipsTotal)
	}
	if got := len(p.ByBrand(BrandD)); got != NumBrandD {
		t.Errorf("brand D count %d, want %d", got, NumBrandD)
	}
	if got := len(p.MajorBrands()); got != NumModules-NumBrandD {
		t.Errorf("major brand count %d", got)
	}
}

func TestPopulationDeterministic(t *testing.T) {
	a := GeneratePopulation(7)
	b := GeneratePopulation(7)
	for i := range a.Modules {
		if a.Modules[i] != b.Modules[i] {
			t.Fatalf("module %d differs across same-seed generations", i)
		}
	}
}

func TestUniqueIDs(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range pop(t).Modules {
		if seen[m.ID] {
			t.Fatalf("duplicate module ID %s", m.ID)
		}
		seen[m.ID] = true
	}
}

func TestMajorBrandAverageMarginNear27Percent(t *testing.T) {
	p := pop(t)
	b := NewBench(23, 1)
	var margins, relative []float64
	for _, m := range p.MajorBrands() {
		mg := float64(b.MeasureMargin(&m, false))
		margins = append(margins, mg)
		relative = append(relative, mg/float64(m.SpecRate))
	}
	mean := stats.Mean(margins)
	if mean < 680 || mean > 860 {
		t.Errorf("brands A-C mean margin %.0f MT/s, paper says ~770", mean)
	}
	rel := stats.Mean(relative)
	if rel < 0.22 || rel > 0.32 {
		t.Errorf("relative margin %.3f, paper says ~27%%", rel)
	}
}

func TestBrandDMuchLower(t *testing.T) {
	p := pop(t)
	b := NewBench(23, 1)
	major := stats.Mean(marginsOf(b, p.MajorBrands()))
	small := stats.Mean(marginsOf(b, p.ByBrand(BrandD)))
	if ratio := major / small; ratio < 1.8 || ratio > 4.5 {
		t.Errorf("A-C / D margin ratio %.2f, paper says ~2.6x", ratio)
	}
}

func TestNineChipConsistency(t *testing.T) {
	p := pop(t)
	b := NewBench(23, 1)
	nine := p.Filter(func(m Module) bool { return m.ChipsPerRank == 9 && m.Brand != BrandD })
	eighteen := p.Filter(func(m Module) bool { return m.ChipsPerRank == 18 && m.Brand != BrandD })
	s9 := stats.StdDev(marginsOf(b, nine))
	s18 := stats.StdDev(marginsOf(b, eighteen))
	if s18 <= s9 {
		t.Errorf("18-chip stdev %.0f not above 9-chip stdev %.0f (paper: 2.1x)", s18, s9)
	}
	if min := stats.Min(marginsOf(b, nine)); min < 600 {
		t.Errorf("9-chip minimum margin %.0f, paper says 600 MT/s", min)
	}
}

func TestSlowerGradesHaveLargerMargins(t *testing.T) {
	p := pop(t)
	b := NewBench(23, 1)
	slow := p.Filter(func(m Module) bool { return m.SpecRate == dramspec.DDR4_2400 && m.Brand != BrandD })
	fast := p.Filter(func(m Module) bool { return m.SpecRate == dramspec.DDR4_3200 && m.Brand != BrandD })
	ms, mf := stats.Mean(marginsOf(b, slow)), stats.Mean(marginsOf(b, fast))
	if ms <= mf {
		t.Errorf("2400MT/s margin %.0f not above 3200MT/s margin %.0f", ms, mf)
	}
	// The 3200 modules are clamped by the 4000 MT/s platform cap.
	for _, m := range fast {
		if got := b.MeasureMargin(&m, false); got > 800 {
			t.Fatalf("3200MT/s module observed margin %d beyond platform cap", got)
		}
	}
}

func TestMarginQuantizedToBIOSStep(t *testing.T) {
	p := pop(t)
	b := NewBench(23, 1)
	for _, m := range p.Modules {
		if g := b.MeasureMargin(&m, false); g%dramspec.BIOSStep != 0 {
			t.Fatalf("margin %d not a multiple of the 200 MT/s BIOS step", g)
		}
	}
}

func TestLatencyMarginDoesNotChangeFrequencyMargin(t *testing.T) {
	// §II-A's last experiment at 23°C.
	p := pop(t)
	b := NewBench(23, 1)
	for _, m := range p.Modules {
		plain := b.MeasureMargin(&m, false)
		withLat := b.MeasureMargin(&m, true)
		if plain != withLat {
			t.Fatalf("module %s margin changed under latency margin: %d vs %d", m.ID, plain, withLat)
		}
	}
}

func TestZeroErrorsWithinMargin(t *testing.T) {
	p := pop(t)
	b := NewBench(23, 1)
	for _, m := range p.MajorBrands() {
		r := b.StressTest(&m, dramspec.SettingSpec, false)
		if r.Total() != 0 {
			t.Fatalf("module %s had %d errors at spec", m.ID, r.Total())
		}
	}
}

func TestErrorsBeyondMargin(t *testing.T) {
	p := pop(t)
	b := NewBench(23, 1)
	any := false
	for _, m := range p.MajorBrands() {
		r := b.StressTest(&m, dramspec.SettingFrequencyMargin, false)
		if r.Total() > 0 {
			any = true
		}
	}
	if !any {
		t.Error("no module showed errors at its highest bootable rate")
	}
}

func TestHotterIsWorse(t *testing.T) {
	p := pop(t)
	cold := NewBench(23, 9)
	hot := NewBench(45, 9)
	var cSum, hSum float64
	for _, m := range p.MajorBrands() {
		if m.Condition == ConditionInProduction {
			continue // not tested in the chamber, per Fig 6's caption
		}
		cSum += float64(cold.StressTest(&m, dramspec.SettingFrequencyMargin, false).Total())
		hr := hot.StressTest(&m, dramspec.SettingFrequencyMargin, false)
		if hr.Booted {
			hSum += float64(hr.Total())
		}
	}
	if hSum <= cSum {
		t.Errorf("45°C errors (%.0f) not above 23°C errors (%.0f); paper says 4x", hSum, cSum)
	}
	ratio := hSum / math.Max(cSum, 1)
	if ratio < 1.5 || ratio > 12 {
		t.Errorf("45/23 error ratio %.1f implausible vs the paper's ~4x", ratio)
	}
}

// TestStressTestTemperatureRatio tests EXPERIMENTS.md deviation 5: on
// the same modules, the 45°C stress test sees the paper's ~4x the 23°C
// errors under the frequency margin and ~2x under freq+lat. Each
// campaign runs as Fig 6 runs it, on a fresh bench per setting seeded
// seed+ambient: every major-brand module at 23°C, every module not in
// production at 45°C, in population order. The ratio sums the 45°C
// errors of the modules that boot and the same modules' 23°C errors.
// Fig 6's totals compare different module sets (all 103 at 23°C, the
// 79 chamber modules less the no-boots at 45°C), so they read lower.
func TestStressTestTemperatureRatio(t *testing.T) {
	settings := []struct {
		setting dramspec.Setting
		lo, hi  float64
	}{
		{dramspec.SettingFrequencyMargin, 3.5, 4.5},
		{dramspec.SettingFreqLatMargin, 1.8, 2.5},
	}
	for seed := uint64(1); seed <= 5; seed++ {
		mods := GeneratePopulation(seed).MajorBrands()
		for _, s := range settings {
			cold := NewBench(23, seed+23)
			coldErr := make([]uint64, len(mods))
			for i := range mods {
				coldErr[i] = cold.StressTest(&mods[i], s.setting, false).Total()
			}
			hot := NewBench(45, seed+45)
			var coldSum, hotSum uint64
			booted := 0
			for i := range mods {
				if mods[i].Condition == ConditionInProduction {
					continue // not in the thermal chamber, per Fig 6's caption
				}
				r := hot.StressTest(&mods[i], s.setting, false)
				if !r.Booted {
					continue
				}
				booted++
				hotSum += r.Total()
				coldSum += coldErr[i]
			}
			if coldSum == 0 {
				t.Fatalf("seed %d %v: no 23°C errors on the %d modules that boot at 45°C", seed, s.setting, booted)
			}
			ratio := float64(hotSum) / float64(coldSum)
			t.Logf("seed %d %v: 45/23°C errors %d/%d = %.2fx over %d modules", seed, s.setting, hotSum, coldSum, ratio, booted)
			if ratio < s.lo || ratio > s.hi {
				t.Errorf("seed %d %v: 45/23°C error ratio %.2f outside [%.1f, %.1f]", seed, s.setting, ratio, s.lo, s.hi)
			}
		}
	}
}

func TestSomeModulesFailToBootAt45(t *testing.T) {
	p := pop(t)
	hot := NewBench(45, 2)
	failed := 0
	for _, m := range p.MajorBrands() {
		if !hot.StressTest(&m, dramspec.SettingFrequencyMargin, false).Booted {
			failed++
		}
	}
	if failed == 0 {
		t.Error("no modules failed to boot in the thermal chamber (Fig 6 lists nine)")
	}
}

func TestFullyPopulatedHalvesErrors(t *testing.T) {
	p := pop(t)
	var totalSolo, totalFull float64
	for _, m := range p.MajorBrands() {
		solo := NewBench(23, 33)
		full := NewBench(23, 33)
		totalSolo += float64(solo.StressTest(&m, dramspec.SettingFreqLatMargin, false).Total())
		totalFull += float64(full.StressTest(&m, dramspec.SettingFreqLatMargin, true).Total())
	}
	if totalFull >= totalSolo {
		t.Errorf("fully-populated errors (%.0f) not below solo (%.0f); paper says half", totalFull, totalSolo)
	}
}

func TestSystemMarginIsMinimum(t *testing.T) {
	p := pop(t)
	b := NewBench(23, 1)
	ms := p.MajorBrands()[:8]
	sys := SystemMargin(b, ms)
	for i := range ms {
		if b.MeasureMargin(&ms[i], false) < sys {
			t.Fatal("system margin exceeds a module's margin")
		}
	}
	if SystemMargin(b, nil) != 0 {
		t.Error("empty system margin != 0")
	}
}

func TestDIMMTemperatureCalibration(t *testing.T) {
	if got := DIMMTemperature(23, false); got != 43 {
		t.Errorf("idle DIMM at 23°C ambient = %v, want 43", got)
	}
	if got := DIMMTemperature(23, true); got != 53 {
		t.Errorf("active DIMM at 23°C ambient = %v, want 53", got)
	}
	if got := DIMMTemperature(45, true); math.Abs(got-60) > 3 {
		t.Errorf("active DIMM at 45°C ambient = %v, want ~60", got)
	}
}

func TestTrinititePercentiles(t *testing.T) {
	xs := TrinititeSample(300_000, 5)
	if min := stats.Min(xs); min < 16 || min > 18 {
		t.Errorf("minimum %v, want ~16°C", min)
	}
	// The paper: 43°C idle > p99, 53°C active > p99.85, 60°C > p99.991.
	if p := PercentileOf(xs, 43); p < 0.98 {
		t.Errorf("43°C at percentile %.4f, want > 0.98", p)
	}
	if p := PercentileOf(xs, 53); p < 0.997 {
		t.Errorf("53°C at percentile %.4f, want > 0.997", p)
	}
	if p := PercentileOf(xs, 60); p < 0.9995 {
		t.Errorf("60°C at percentile %.4f, want > 0.9995", p)
	}
}

func TestBrandString(t *testing.T) {
	if BrandA.String() != "A" || BrandD.String() != "D" {
		t.Error("brand letters wrong")
	}
	if Brand(9).String() == "J" {
		t.Error("out-of-range brand not flagged")
	}
	if ConditionNew.String() != "new" || ConditionRefurbished.String() != "refurbished" {
		t.Error("condition names wrong")
	}
}
