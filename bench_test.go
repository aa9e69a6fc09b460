// Package repro's root benchmarks regenerate every table and figure of
// the paper's evaluation (see DESIGN.md's per-experiment index): one
// testing.B benchmark per artifact, each timing a full regeneration of
// that artifact at reduced (Quick) scale. Run them all with
//
//	go test -bench=. -benchmem
//
// and any one artifact with e.g. -bench=BenchmarkFig12.
package repro

import (
	"testing"

	"repro/internal/experiments"
)

// runExperiment is the shared harness: each iteration rebuilds the suite
// (so caches don't amortize across iterations) and regenerates one
// artifact.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := experiments.New(experiments.Options{Seed: uint64(i) + 1, Quick: true})
		tab := e.Run(s)
		if len(tab.Rows) == 0 {
			b.Fatalf("experiment %s produced no rows", id)
		}
	}
}

// BenchmarkTable1Scale regenerates Table I (study scale census).
func BenchmarkTable1Scale(b *testing.B) { runExperiment(b, "tab1") }

// BenchmarkFig1MemoryUtilization regenerates Fig 1 (fraction of jobs
// under 25%/50% memory utilization on every occupied node).
func BenchmarkFig1MemoryUtilization(b *testing.B) { runExperiment(b, "fig1") }

// BenchmarkFig2FrequencyMargins regenerates Fig 2 (margin distribution
// across the 119-module population, per brand).
func BenchmarkFig2FrequencyMargins(b *testing.B) { runExperiment(b, "fig2") }

// BenchmarkFig3ModuleFactors regenerates Fig 3 (brand, chips/rank, and
// speed-grade impact with 99% confidence intervals).
func BenchmarkFig3ModuleFactors(b *testing.B) { runExperiment(b, "fig3") }

// BenchmarkFig4OtherFactors regenerates Fig 4 (aging, density, and
// manufacturing date: little impact).
func BenchmarkFig4OtherFactors(b *testing.B) { runExperiment(b, "fig4") }

// BenchmarkTable2Settings regenerates Table II (the four margin-
// exploiting memory settings).
func BenchmarkTable2Settings(b *testing.B) { runExperiment(b, "tab2") }

// BenchmarkFig5MarginSpeedup regenerates Fig 5 (real-system speedup from
// exploiting latency, frequency, and combined margins).
func BenchmarkFig5MarginSpeedup(b *testing.B) { runExperiment(b, "fig5") }

// BenchmarkFig6ErrorRates regenerates Fig 6 (stress-test error rates at
// 23°C/45°C, solo and fully populated).
func BenchmarkFig6ErrorRates(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkFig11MarginDistributions regenerates Fig 11 (Monte-Carlo
// channel- and node-level margin distributions).
func BenchmarkFig11MarginDistributions(b *testing.B) { runExperiment(b, "fig11") }

// BenchmarkFig12NodePerformance regenerates Fig 12 (normalized node
// performance per design, usage bucket, and hierarchy).
func BenchmarkFig12NodePerformance(b *testing.B) { runExperiment(b, "fig12") }

// BenchmarkFig12Detail regenerates the per-benchmark Fig 12 expansion.
func BenchmarkFig12Detail(b *testing.B) { runExperiment(b, "fig12d") }

// BenchmarkFig13EnergyPerInstruction regenerates Fig 13 (system EPI
// normalized to the Commercial Baseline).
func BenchmarkFig13EnergyPerInstruction(b *testing.B) { runExperiment(b, "fig13") }

// BenchmarkFig14DRAMAccessOverhead regenerates Fig 14 (DRAM accesses per
// instruction of Hetero-DMR+FMR vs baseline).
func BenchmarkFig14DRAMAccessOverhead(b *testing.B) { runExperiment(b, "fig14") }

// BenchmarkFig15BandwidthUtilization regenerates Fig 15 (per-benchmark
// bandwidth utilization and write share at spec).
func BenchmarkFig15BandwidthUtilization(b *testing.B) { runExperiment(b, "fig15") }

// BenchmarkFig16SiliconCorroboration regenerates Fig 16 (simulated vs
// emulated Hetero-DMR benefit).
func BenchmarkFig16SiliconCorroboration(b *testing.B) { runExperiment(b, "fig16") }

// BenchmarkFig17SystemWide regenerates Fig 17 (system-wide execution,
// queuing, and turnaround under the Slurm-style simulator).
func BenchmarkFig17SystemWide(b *testing.B) { runExperiment(b, "fig17") }

// BenchmarkTable34Config regenerates the Tables III-IV configuration dump.
func BenchmarkTable34Config(b *testing.B) { runExperiment(b, "config") }

// benchmarkRunAll regenerates every artifact in one suite with the given
// worker-pool size. Rendering is included so the timed work matches what
// `heterodmr -all` does.
func benchmarkRunAll(b *testing.B, workers int) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := experiments.New(experiments.Options{Seed: uint64(i) + 1, Quick: true, Workers: workers})
		tabs := s.RunAll()
		if len(tabs) != len(experiments.Registry()) {
			b.Fatalf("RunAll produced %d tables", len(tabs))
		}
		for _, t := range tabs {
			if t.String() == "" {
				b.Fatal("empty table")
			}
		}
	}
}

// BenchmarkRunAllSeq times the full quick suite on the sequential
// (workers=1) path — the pre-parallel-engine baseline.
func BenchmarkRunAllSeq(b *testing.B) { benchmarkRunAll(b, 1) }

// BenchmarkRunAllParallel times the full quick suite on the default
// GOMAXPROCS-sized worker pool. Output is byte-identical to the
// sequential run; compare the two benchmarks for the parallel speedup.
func BenchmarkRunAllParallel(b *testing.B) { benchmarkRunAll(b, 0) }
