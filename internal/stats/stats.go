// Package stats provides the small set of descriptive statistics the
// paper's characterization and evaluation sections use: means, standard
// deviations, normal-approximation confidence intervals (Fig 3a computes
// 99% CIs "using the normal distribution similar to prior work"),
// percentiles, extremes and threshold fractions.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the sample standard deviation (n-1 denominator) of xs.
// It returns 0 when len(xs) < 2.
func StdDev(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1))
}

// z99 is the two-sided 99% critical value of the standard normal.
const z99 = 2.5758293035489004

// CI99 returns the half-width of the two-sided 99% confidence interval
// for the mean of xs under a normal approximation, matching the paper's
// Fig 3a methodology. It returns 0 when len(xs) < 2.
func CI99(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	return z99 * StdDev(xs) / math.Sqrt(float64(n))
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using
// linear interpolation between closest ranks. It panics on empty input
// or p outside [0, 100].
func Percentile(xs []float64, p float64) float64 {
	return Percentiles(xs, p)[0]
}

// Percentiles returns the ps-th percentiles of xs, each as Percentile
// computes it, from one sorted copy of xs. It panics on empty input or
// any p outside [0, 100].
func Percentiles(xs []float64, ps ...float64) []float64 {
	if len(xs) == 0 {
		panic("stats: Percentile of empty slice")
	}
	for _, p := range ps {
		if p < 0 || p > 100 {
			panic("stats: percentile out of [0,100]")
		}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := make([]float64, len(ps))
	for i, p := range ps {
		rank := p / 100 * float64(len(s)-1)
		lo := int(math.Floor(rank))
		hi := int(math.Ceil(rank))
		if lo == hi {
			out[i] = s[lo]
			continue
		}
		frac := rank - float64(lo)
		out[i] = s[lo]*(1-frac) + s[hi]*frac
	}
	return out
}

// Min returns the smallest element of xs. It panics on empty input.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Min of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element of xs. It panics on empty input.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Max of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// FractionAtLeast returns the fraction of xs that is >= threshold.
func FractionAtLeast(xs []float64, threshold float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if x >= threshold {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// Summary bundles the descriptive statistics the characterization
// figures report for a group of modules.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	CI99   float64
	Min    float64
	Max    float64
}

// Summarize computes a Summary of xs. An empty slice yields a zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	return Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		StdDev: StdDev(xs),
		CI99:   CI99(xs),
		Min:    Min(xs),
		Max:    Max(xs),
	}
}

// String renders a Summary in a compact human-readable form.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.1f stdev=%.1f ci99=±%.1f min=%.1f max=%.1f",
		s.N, s.Mean, s.StdDev, s.CI99, s.Min, s.Max)
}
