// Package memuse synthesizes and analyzes HPC memory-utilization
// measurements shaped like the LANL dataset behind Fig 1 (3 billion
// measurements over 7 million machine-hours). The paper's analysis
// computes, per job, whether EVERY node the job occupies stays below a
// utilization threshold for the job's whole lifetime; Fig 1 reports the
// fraction of jobs under 50% and under 25%.
//
// Hetero-DMR activates replication when half the modules in a channel are
// free (<50% node utilization) and Hetero-DMR+FMR needs <25%, so these
// job fractions are the weights of Fig 12's "[0~100%]" bucket and the
// probabilistic scaling in the Fig 17 system simulation.
package memuse

import (
	"fmt"

	"repro/internal/xrand"
)

// JobUsage is one job's memory-utilization trace summary: per-node peak
// utilization over the job's lifetime (all-inclusive: applications plus
// OS file cache, as the paper measures).
type JobUsage struct {
	JobID     int
	Nodes     int
	PeakUtil  []float64 // per-node lifetime peak, in [0,1]
	DurationH float64
}

// MaxPeak returns the highest per-node peak (the value Hetero-DMR's
// activation decision sees: the job benefits only if every node stays
// under the threshold).
func (j *JobUsage) MaxPeak() float64 {
	max := 0.0
	for _, u := range j.PeakUtil {
		if u > max {
			max = u
		}
	}
	return max
}

// Bucket classifies a job into the Fig 12 memory-usage buckets.
type Bucket int

// The paper's three usage buckets.
const (
	BucketUnder25 Bucket = iota // [0, 25%): Hetero-DMR+FMR eligible
	BucketUnder50               // [25%, 50%): Hetero-DMR eligible
	BucketOver50                // [50%, 100%]: falls back to baseline
)

// String names the bucket like the paper's x-axis.
func (b Bucket) String() string {
	switch b {
	case BucketUnder25:
		return "[0~25%)"
	case BucketUnder50:
		return "[25~50%)"
	case BucketOver50:
		return "[50~100%]"
	default:
		return fmt.Sprintf("Bucket(%d)", int(b))
	}
}

// BucketOf classifies a job by its worst node.
func BucketOf(j *JobUsage) Bucket {
	switch p := j.MaxPeak(); {
	case p < 0.25:
		return BucketUnder25
	case p < 0.50:
		return BucketUnder50
	default:
		return BucketOver50
	}
}

// Fractions is the Fig 1 result.
type Fractions struct {
	Under25 float64 // jobs whose every node stays <25% for the lifetime
	Under50 float64 // likewise <50%
}

// Weights returns the three bucket weights used by Fig 12's weighted
// average: {<25%, 25-50%, >=50%}.
func (f Fractions) Weights() (w25, w50, wOver float64) {
	return f.Under25, f.Under50 - f.Under25, 1 - f.Under50
}

// Analyze computes Fig 1's fractions from a job population.
func Analyze(jobs []JobUsage) Fractions {
	if len(jobs) == 0 {
		return Fractions{}
	}
	var u25, u50 int
	for i := range jobs {
		switch BucketOf(&jobs[i]) {
		case BucketUnder25:
			u25++
			u50++
		case BucketUnder50:
			u50++
		}
	}
	n := float64(len(jobs))
	return Fractions{Under25: float64(u25) / n, Under50: float64(u50) / n}
}

// GeneratorConfig shapes the synthetic job population. Defaults are
// calibrated so Analyze reproduces Fig 1's Grizzly bars (~43% of jobs
// under 25% on every node, ~62% under 50%).
type GeneratorConfig struct {
	Jobs int
	Seed uint64
}

// Generate synthesizes a job population with per-node lifetime peak
// utilizations. The shape follows the paper's §I discussion: HPC nodes
// run one highly parallel job each, inputs arrive over MPI rather than
// the file cache, and scaling out keeps per-node footprints small — so
// utilization is right-skewed with a long low-usage head.
func Generate(cfg GeneratorConfig) []JobUsage {
	if cfg.Jobs <= 0 {
		panic("memuse: non-positive job count")
	}
	rng := xrand.New(cfg.Seed)
	wide := xrand.NewPareto(1.2, 4, 512)
	duration := xrand.NewPareto(1.3, 0.05, 200)
	jobs := make([]JobUsage, cfg.Jobs)
	for i := range jobs {
		nodes := 1 + rng.Poisson(3)
		if rng.Bool(0.1) {
			nodes += int(wide.Sample(rng))
		}
		j := JobUsage{
			JobID:     i + 1,
			Nodes:     nodes,
			PeakUtil:  make([]float64, nodes),
			DurationH: duration.Sample(rng),
		}
		// A job-level base utilization; nodes vary around it.
		var base float64
		switch {
		case rng.Bool(0.40): // small-footprint jobs
			base = 0.03 + 0.18*rng.Float64()
		case rng.Bool(0.45): // moderate
			base = 0.20 + 0.36*rng.Float64()
		default: // memory-hungry
			base = 0.45 + 0.55*rng.Float64()
		}
		for n := range j.PeakUtil {
			u := base * (0.9 + 0.2*rng.Float64())
			if u > 1 {
				u = 1
			}
			if u < 0.01 {
				u = 0.01
			}
			j.PeakUtil[n] = u
		}
		jobs[i] = j
	}
	return jobs
}
