package experiments

import (
	"fmt"

	"repro/internal/hpc"
	"repro/internal/montecarlo"
	"repro/internal/node"
	"repro/internal/parallel"
	"repro/internal/report"
	"repro/internal/shard"
)

// monteCarloConfig builds the suite's Monte-Carlo configuration: paper
// scale (or Quick's reduced trials) on the shared worker pool.
func (s *Suite) monteCarloConfig() montecarlo.Config {
	cfg := montecarlo.DefaultConfig(s.opt.Seed)
	cfg.Workers = s.opt.Workers
	if s.opt.Quick {
		cfg.Trials = 20_000
	}
	return cfg
}

// Fig11 reproduces Fig 11: Monte-Carlo distributions of channel-level and
// node-level memory frequency margins under margin-aware and
// margin-unaware selection.
func (s *Suite) Fig11() *report.Table {
	cfg := s.monteCarloConfig()
	t := report.New("Fig 11 — channel/node margin distributions",
		"level", "selection", ">=0.8GT/s", ">=0.6GT/s", "paper >=0.8", "paper >=0.6")
	ca := s.monteCarlo(shard.LevelChannel, cfg, montecarlo.MarginAware)
	cu := s.monteCarlo(shard.LevelChannel, cfg, montecarlo.MarginUnaware)
	na := s.monteCarlo(shard.LevelNode, cfg, montecarlo.MarginAware)
	nu := s.monteCarlo(shard.LevelNode, cfg, montecarlo.MarginUnaware)
	t.AddRow("channel", "margin-aware", fmtPct(ca.FractionAtLeast(800)), fmtPct(ca.FractionAtLeast(600)), "96%", "-")
	t.AddRow("channel", "margin-unaware", fmtPct(cu.FractionAtLeast(800)), fmtPct(cu.FractionAtLeast(600)), "80%", "-")
	t.AddRow("node", "margin-aware", fmtPct(na.FractionAtLeast(800)), fmtPct(na.FractionAtLeast(600)), "62%", "98%")
	t.AddRow("node", "margin-unaware", fmtPct(nu.FractionAtLeast(800)), fmtPct(nu.FractionAtLeast(600)), "7%", "96%")
	return t
}

// fig17Scale returns the trace scale (full Grizzly, or reduced in Quick
// mode).
func (s *Suite) fig17Scale() (jobs, nodes int, periodS float64) {
	if s.opt.Quick {
		return 6_000, 256, hpc.TracePeriodS / 8
	}
	return hpc.GrizzlyJobs, hpc.GrizzlyNodes, hpc.TracePeriodS
}

// fig17Cells lists the cells Fig 17's speedup model reads.
func (s *Suite) fig17Cells() []cell { return s.weightedSpeedupCells(node.Hierarchies()...) }

// Fig17 reproduces Fig 17: system-wide job execution time, queuing delay,
// and turnaround time of Hetero-DMR normalized to a conventional HPC
// system, per hierarchy, plus the margin-aware vs default scheduler
// comparison and the +17%-nodes control experiment.
func (s *Suite) Fig17() *report.Table {
	jobs, nodes, period := s.fig17Scale()
	tr := hpc.GenerateTrace(jobs, nodes, period, hpc.TargetNodeUtil, s.Fractions(), s.opt.Seed)
	// The margin-aware node groups (§III-D3's 62% / 36% / 2% example).
	groups := s.monteCarlo(shard.LevelNode, s.monteCarloConfig(), montecarlo.MarginAware).Groups()

	// Describe all cluster simulations up front, then fan them out: the
	// trace and clusters are read-only inside hpc.Simulate, and each
	// simulation reseeds from Options.Seed, so the fan-out is
	// order-independent. Slots: conv, +17% control, then per-hierarchy
	// (aware, default) pairs.
	type simDef struct {
		cluster *hpc.Cluster
		policy  hpc.Policy
		model   hpc.SpeedupModel
	}
	defs := []simDef{
		{hpc.UniformCluster(nodes, 0), hpc.PolicyDefault, hpc.ConventionalModel},
		{hpc.UniformCluster(nodes+nodes*17/100, 0), hpc.PolicyDefault, hpc.ConventionalModel},
	}
	for _, h := range node.Hierarchies() {
		at800, at600 := s.HeteroDMRWeightedSpeedup(h)
		if at800 < 1 {
			at800 = 1
		}
		if at600 < 1 {
			at600 = 1
		}
		if at600 > at800 {
			at600 = at800
		}
		model := hpc.HeteroDMRModel(at800, at600)
		cluster := hpc.GroupedCluster(nodes, groups.At800, groups.At600)
		defs = append(defs,
			simDef{cluster, hpc.PolicyMarginAware, model},
			simDef{cluster, hpc.PolicyDefault, model})
	}
	sims := parallel.MapN(s.opt.Workers, len(defs), func(i int) *hpc.Result {
		d := defs[i]
		scope := fmt.Sprintf("fig17/sim%d/%s", i, d.policy)
		res, vs := hpc.SimulateObserved(tr, d.cluster, d.policy, d.model, s.opt.Seed, s.opt.Obs, scope)
		if s.opt.Check {
			s.addViolations(vs)
		}
		return res
	})
	conv, more := sims[0], sims[1]

	t := report.New("Fig 17 — system-wide speedups over a conventional HPC system",
		"hierarchy", "system", "exec-time speedup", "queue-delay reduction", "turnaround speedup")
	addRow := func(hier, name string, r *hpc.Result) {
		queueRed := 0.0
		if conv.MeanWaitS > 0 {
			queueRed = 1 - r.MeanWaitS/conv.MeanWaitS
		}
		t.AddRowf(hier, name,
			conv.MeanExecS/r.MeanExecS,
			fmtPct(queueRed),
			conv.MeanTurnaround/r.MeanTurnaround)
	}
	for i, h := range node.Hierarchies() {
		addRow(h.Name, "Hetero-DMR (margin-aware sched)", sims[2+2*i])
		addRow(h.Name, "Hetero-DMR (default sched)", sims[3+2*i])
	}
	addRow("-", "conventional +17% nodes (control)", more)
	t.Note("paper: 1.17x execution, ~34%% queue-delay reduction, 1.4x turnaround; +17%% nodes cuts queuing ~33%%")
	return t
}
