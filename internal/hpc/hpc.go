// Package hpc implements the system-wide evaluation of §IV-C: an
// event-driven cluster scheduler simulator (FCFS with EASY backfill, the
// standard Slurm configuration) fed with a Grizzly-like synthetic job
// trace (1490 nodes, 36 cores and 128GB per node, 58K jobs over four
// months at ~78% node utilization), plus the ~30-line margin-aware
// scheduling policy of §III-D3 that groups nodes by memory frequency
// margin and places each job on nodes of one group.
//
// Job execution times scale with the Hetero-DMR speedup of the slowest
// allocated node, gated by the job's memory-utilization bucket (only jobs
// under 50% utilization benefit), reproducing Fig 17's execution-time,
// queuing-delay, and turnaround results.
package hpc

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/memuse"
	"repro/internal/xrand"
)

// Grizzly-scale constants (§IV-C).
const (
	GrizzlyNodes   = 1490
	GrizzlyJobs    = 58_000
	GrizzlyMonths  = 4
	SecondsPerDay  = 86_400
	TracePeriodS   = GrizzlyMonths * 30 * SecondsPerDay
	TargetNodeUtil = 0.78
)

// Trace scale bounds. A trace needs MinTraceNodes nodes, because its wide
// jobs draw 4 to nodes/4 extra nodes. The caps sit far above the Grizzly
// scale (17x its jobs, 67x its nodes) and bound what one spec can make a
// process allocate: a job costs a few hundred bytes across its usage
// record, its trace entry and its metrics.
const (
	MinTraceNodes = 17
	MaxTraceJobs  = 1_000_000
	MaxTraceNodes = 100_000
)

// Job is one trace entry.
type Job struct {
	ID      int
	SubmitS float64
	Nodes   int
	BaseS   float64 // runtime on a conventional system
	Bucket  memuse.Bucket
}

// Trace is a job list sorted by submit time.
type Trace struct {
	Jobs       []Job
	TotalNodes int
	PeriodS    float64
}

// NodeUtilization returns sum(job nodes * base runtime) / (nodes * period)
// — the paper's overall node utilization formula.
func (t *Trace) NodeUtilization() float64 {
	var ns float64
	for i := range t.Jobs {
		ns += float64(t.Jobs[i].Nodes) * t.Jobs[i].BaseS
	}
	return ns / (float64(t.TotalNodes) * t.PeriodS)
}

// TraceSpec is everything a synthetic trace is generated from:
// GenerateTrace's inputs, with the Fig 1 usage population (Usage) whose
// fractions draw each job's memory bucket. Equal specs generate equal
// traces, and a spec is comparable, so it names the trace that the
// simulations of one shard batch share.
type TraceSpec struct {
	Jobs       int
	Nodes      int
	PeriodS    float64
	TargetUtil float64
	Usage      memuse.GeneratorConfig
	Seed       uint64
}

// Validate refuses a spec that Generate cannot turn into a trace the
// scheduler accepts: job counts (trace and usage population) outside 1 to
// MaxTraceJobs, node counts outside MinTraceNodes to MaxTraceNodes, a
// period that is not finite and positive, or a target utilization outside
// (0, 1].
func (s TraceSpec) Validate() error {
	switch {
	case s.Jobs <= 0 || s.Jobs > MaxTraceJobs:
		return fmt.Errorf("hpc: trace of %d jobs, want 1 to %d", s.Jobs, MaxTraceJobs)
	case s.Usage.Jobs <= 0 || s.Usage.Jobs > MaxTraceJobs:
		return fmt.Errorf("hpc: usage population of %d jobs, want 1 to %d", s.Usage.Jobs, MaxTraceJobs)
	case s.Nodes < MinTraceNodes || s.Nodes > MaxTraceNodes:
		return fmt.Errorf("hpc: trace of %d nodes, want %d to %d", s.Nodes, MinTraceNodes, MaxTraceNodes)
	case !(s.PeriodS > 0) || math.IsInf(s.PeriodS, 1):
		return fmt.Errorf("hpc: trace period %v s, want finite and positive", s.PeriodS)
	case !(s.TargetUtil > 0 && s.TargetUtil <= 1):
		return fmt.Errorf("hpc: target utilization %v, want (0, 1]", s.TargetUtil)
	}
	return nil
}

// Generate synthesizes the spec's trace: the Fig 1 fractions of its usage
// population, then GenerateTrace. It panics on a spec Validate refuses.
func (s TraceSpec) Generate() *Trace {
	frac := memuse.Analyze(memuse.Generate(s.Usage))
	return GenerateTrace(s.Jobs, s.Nodes, s.PeriodS, s.TargetUtil, frac, s.Seed)
}

// GenerateTrace synthesizes a Grizzly-like trace: Poisson arrivals over
// the period, heavy-tailed node counts and runtimes, and memory buckets
// drawn from the Fig 1 job fractions. Runtimes are rescaled exactly to
// the target overall utilization. It panics on a non-positive job count,
// period or utilization, on a non-finite period or utilization (every
// comparison with a NaN is false, so a NaN is refused too), and on a
// cluster of fewer than MinTraceNodes nodes, where the wide jobs' extra
// nodes (4 to totalNodes/4) have no range.
func GenerateTrace(jobs, totalNodes int, periodS, targetUtil float64, frac memuse.Fractions, seed uint64) *Trace {
	if jobs <= 0 || totalNodes < MinTraceNodes || !(periodS > 0) || math.IsInf(periodS, 1) ||
		!(targetUtil > 0) || math.IsInf(targetUtil, 1) {
		panic(fmt.Sprintf("hpc: trace needs jobs > 0, nodes >= %d and a finite positive period and utilization (jobs %d, nodes %d, period %v s, utilization %v)",
			MinTraceNodes, jobs, totalNodes, periodS, targetUtil))
	}
	rng := xrand.New(seed)
	tr := &Trace{TotalNodes: totalNodes, PeriodS: periodS}
	// Real HPC arrivals are bursty (campaign submissions), which is what
	// produces the queuing delays Fig 17 measures; submit most jobs in
	// clusters around campaign instants.
	campaigns := make([]float64, jobs/400+1)
	for i := range campaigns {
		campaigns[i] = rng.Float64() * periodS
	}
	wide := xrand.NewPareto(1.3, 4, float64(totalNodes)/4)
	runtime := xrand.NewPareto(1.05, 120, 14*SecondsPerDay)
	var nodeSeconds float64
	for i := 0; i < jobs; i++ {
		submit := rng.Float64() * periodS
		if rng.Bool(0.85) {
			submit = campaigns[rng.Intn(len(campaigns))] + rng.Exponential(6*3600)
			if submit > periodS {
				submit = periodS
			}
		}
		j := Job{ID: i + 1, SubmitS: submit}
		j.Nodes = 1 + rng.Poisson(2)
		if rng.Bool(0.08) {
			j.Nodes += int(wide.Sample(rng))
		}
		if j.Nodes > totalNodes {
			j.Nodes = totalNodes
		}
		j.BaseS = runtime.Sample(rng)
		switch u := rng.Float64(); {
		case u < frac.Under25:
			j.Bucket = memuse.BucketUnder25
		case u < frac.Under50:
			j.Bucket = memuse.BucketUnder50
		default:
			j.Bucket = memuse.BucketOver50
		}
		nodeSeconds += float64(j.Nodes) * j.BaseS
		tr.Jobs = append(tr.Jobs, j)
	}
	// Rescale runtimes so the trace hits the target utilization exactly.
	// The 1-second floor on runtimes inflates the clamped jobs above their
	// scaled value, so after clamping, renormalize once: shrink the
	// unclamped jobs to absorb exactly the node-seconds the floor added.
	targetNS := targetUtil * float64(totalNodes) * periodS
	scale := targetNS / nodeSeconds
	var flooredNS, freeNS float64
	floored := make([]bool, len(tr.Jobs))
	for i := range tr.Jobs {
		tr.Jobs[i].BaseS *= scale
		if tr.Jobs[i].BaseS < 1 {
			tr.Jobs[i].BaseS = 1
			floored[i] = true
			flooredNS += float64(tr.Jobs[i].Nodes)
		} else {
			freeNS += float64(tr.Jobs[i].Nodes) * tr.Jobs[i].BaseS
		}
	}
	if flooredNS > 0 && freeNS > 0 && targetNS > flooredNS {
		re := (targetNS - flooredNS) / freeNS
		for i := range tr.Jobs {
			if floored[i] {
				continue
			}
			tr.Jobs[i].BaseS *= re
			if tr.Jobs[i].BaseS < 1 {
				tr.Jobs[i].BaseS = 1 // newly floored; residual error is tiny
			}
		}
	}
	sort.Slice(tr.Jobs, func(a, b int) bool { return tr.Jobs[a].SubmitS < tr.Jobs[b].SubmitS })
	return tr
}

// GenerateGrizzlyTrace is GenerateTrace at the paper's scale.
func GenerateGrizzlyTrace(frac memuse.Fractions, seed uint64) *Trace {
	return GenerateTrace(GrizzlyJobs, GrizzlyNodes, TracePeriodS, TargetNodeUtil, frac, seed)
}

// SpeedupModel maps (node margin in MT/s, job bucket) to the job's
// Hetero-DMR speedup on such nodes; a conventional system is the constant
// 1.0 model. Only jobs below 50% utilization benefit (§IV-C).
type SpeedupModel func(marginMTs int, bucket memuse.Bucket) float64

// ConventionalModel is the baseline: no speedup anywhere.
func ConventionalModel(int, memuse.Bucket) float64 { return 1 }

// HeteroDMRModel builds the §IV-C scaling model from node-level speedups
// measured at the 0.8 and 0.6 GT/s margins.
func HeteroDMRModel(speedup800, speedup600 float64) SpeedupModel {
	if speedup800 < 1 || speedup600 < 1 {
		panic(fmt.Sprintf("hpc: speedups below 1 (%v, %v)", speedup800, speedup600))
	}
	return func(marginMTs int, bucket memuse.Bucket) float64 {
		if bucket == memuse.BucketOver50 {
			return 1 // falls back to Commercial Baseline behaviour
		}
		switch {
		case marginMTs >= 800:
			return speedup800
		case marginMTs >= 600:
			return speedup600
		default:
			return 1
		}
	}
}

// Policy selects nodes for a job.
type Policy int

// Scheduler policies.
const (
	// PolicyDefault is Slurm's default: margin-oblivious allocation from
	// whatever nodes are free.
	PolicyDefault Policy = iota
	// PolicyMarginAware groups nodes by margin and schedules each job on
	// the fastest group with enough free nodes, falling back to the
	// fastest X free nodes overall (§III-D3).
	PolicyMarginAware
)

// String names the policy.
func (p Policy) String() string {
	if p == PolicyMarginAware {
		return "margin-aware"
	}
	return "slurm-default"
}
