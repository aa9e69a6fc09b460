package experiments

import (
	"fmt"

	"repro/internal/hpc"
	"repro/internal/montecarlo"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/shard"
)

// monteCarloConfig builds the suite's Monte-Carlo configuration: paper
// scale, or Quick's reduced trials.
func (s *Suite) monteCarloConfig() montecarlo.Config {
	cfg := montecarlo.DefaultConfig(s.opt.Seed)
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

// fig17Trace returns the spec of Fig 17's trace: the full Grizzly scale,
// or reduced in Quick mode, with buckets drawn from the Fig 1 fractions
// of the suite's usage population.
func (s *Suite) fig17Trace() hpc.TraceSpec {
	spec := hpc.TraceSpec{
		Jobs: hpc.GrizzlyJobs, Nodes: hpc.GrizzlyNodes, PeriodS: hpc.TracePeriodS, TargetUtil: hpc.TargetNodeUtil,
		Usage: s.usageConfig(), Seed: s.opt.Seed,
	}
	if s.opt.Quick {
		spec.Jobs, spec.Nodes, spec.PeriodS = 6_000, 256, hpc.TracePeriodS/8
	}
	return spec
}

// fig17Cells lists the cells Fig 17's speedup model reads.
func (s *Suite) fig17Cells() []cell { return s.weightedSpeedupCells(node.Hierarchies()...) }

// fig17Sim is one of Fig 17's cluster simulations as it lands: its
// summary and, for a checked unit, its violations and observations.
type fig17Sim struct {
	res hpc.Result
	vs  []obs.Violation
	ob  shard.Observed
}

// fig17Units lists Fig 17's cluster simulations as units keyed by
// everything each reads, so they replay from the store, and all six
// share one trace batch: the trace is generated at most once, and only
// if one of them runs. Slots: conv, +17% control, then per-hierarchy
// (aware, default) pairs. A conventional system is the Hetero-DMR model
// at speedups (1, 1), which gives every job speedup 1 as
// ConventionalModel does. It reads the Fig 11 node groups and the
// weighted node speedups, so the suite's cells must be warm.
func (s *Suite) fig17Units() []shard.Unit {
	spec := s.fig17Trace()
	nodes := spec.Nodes
	// The margin-aware node groups (§III-D3's 62% / 36% / 2% example).
	groups := s.monteCarlo(shard.LevelNode, s.monteCarloConfig(), montecarlo.MarginAware).Groups()
	check := s.opt.Check || s.opt.Obs != nil // a checked payload carries the observations
	var units []shard.Unit
	add := func(clusterNodes map[int]int, policy hpc.Policy, at800, at600 float64) {
		m := shard.HPCMaterial{Trace: spec, Nodes: clusterNodes, Policy: policy,
			At800: at800, At600: at600, Seed: s.opt.Seed, Check: check}
		if check {
			m.Scope = fmt.Sprintf("fig17/sim%d/%s", len(units), policy)
		}
		units = append(units, shard.NewHPCUnit(s.opt.CacheVersion, m))
	}
	add(map[int]int{0: nodes}, hpc.PolicyDefault, 1, 1)
	add(map[int]int{0: nodes + nodes*17/100}, hpc.PolicyDefault, 1, 1)
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
		grouped := hpc.GroupedNodes(nodes, groups.At800, groups.At600)
		add(grouped, hpc.PolicyMarginAware, at800, at600)
		add(grouped, hpc.PolicyDefault, at800, at600)
	}
	return units
}

// Fig17 reproduces Fig 17: system-wide job execution time, queuing delay,
// and turnaround time of Hetero-DMR normalized to a conventional HPC
// system, per hierarchy, plus the margin-aware vs default scheduler
// comparison and the +17%-nodes control experiment.
func (s *Suite) Fig17() *report.Table {
	sims, _ := materialize(s, s.fig17Units(), func(u shard.Unit, p []byte) (sim fig17Sim, err error) {
		if u.HPC.Check {
			sim.res, sim.vs, sim.ob, err = shard.DecodeCheckedHPC(p)
		} else {
			sim.res, err = shard.DecodeHPCResult(p)
		}
		return sim, err
	})
	for _, sim := range sims {
		if s.opt.Check {
			s.addViolations(sim.vs)
		}
		s.opt.Obs.Merge(sim.ob.Metrics, sim.ob.Events)
	}
	conv, more := &sims[0].res, &sims[1].res

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
		addRow(h.Name, "Hetero-DMR (margin-aware sched)", &sims[2+2*i].res)
		addRow(h.Name, "Hetero-DMR (default sched)", &sims[3+2*i].res)
	}
	addRow("-", "conventional +17% nodes (control)", more)
	t.Note("paper: 1.17x execution, ~34%% queue-delay reduction, 1.4x turnaround; +17%% nodes cuts queuing ~33%%")
	return t
}
