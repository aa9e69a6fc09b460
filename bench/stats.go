package main

import (
	"math"
	"sort"

	"repro/internal/stats"
)

// summary is the distribution of one metric's samples.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize returns the median and quartiles of xs. The quartiles use
// the "exclusive" interpolation of Python's statistics.quantiles(xs,
// n=4), so a spread computed here matches one computed from the same
// samples in Python.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := quartiles(s)
	return summary{Median: stats.Percentile(s, 50), Q1: q[0], Q3: q[2], N: len(s)}
}

// quartiles of sorted s, by the exclusive method: cut point i of n=4
// sits at rank i*(len+1)/4, clamped to the sample and interpolated.
func quartiles(s []float64) [3]float64 {
	ld := len(s)
	if ld == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return out
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
}

// tailPercentile is the highest whole percentile of n samples that has
// at least ten samples beyond it (nearest rank), or 0 when n is too small
// for any percentile from the median up to have that many.
func tailPercentile(n int) int {
	for p := 99; p >= 50; p-- {
		if n-nearestRank(p, n) >= 10 {
			return p
		}
	}
	return 0
}

// nearestRank is the 1-based rank of the p-th percentile of n samples.
func nearestRank(p, n int) int {
	r := (p*n + 99) / 100 // ceil(p·n/100) in integers: 0.9·100 is not 90 in floating point
	if r < 1 {
		r = 1
	}
	return r
}
