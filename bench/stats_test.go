package main

import (
	"math"
	"testing"
)

// TestQuartilesMatchPython pins summarize to Python's
// statistics.quantiles(xs, n=4) (exclusive method) and median.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, m, q3  float64
		spreadWant float64
	}{
		// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25, 5.5 / 5.5},
		// statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5, 1},
		// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
		{[]float64{2, 1}, 0.75, 1.5, 2.25, 1},
		{[]float64{7}, 7, 7, 7, 0},
	} {
		s := summarize(c.xs)
		if !near(s.Q1, c.q1) || !near(s.Median, c.m) || !near(s.Q3, c.q3) || s.N != len(c.xs) {
			t.Errorf("summarize(%v) = %+v, want q1 %g median %g q3 %g", c.xs, s, c.q1, c.m, c.q3)
		}
		if !near(s.spread(), c.spreadWant) {
			t.Errorf("spread(%v) = %g, want %g", c.xs, s.spread(), c.spreadWant)
		}
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

// TestTailPercentile checks the highest percentile that leaves at least
// ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	for n, want := range map[int]int{1: 0, 19: 0, 20: 50, 50: 80, 100: 90, 101: 90, 110: 90, 200: 95, 1000: 99} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %d, want %d", n, got, want)
		}
		if p := tailPercentile(n); p > 0 && n-nearestRank(p, n) < 10 {
			t.Errorf("tailPercentile(%d) = p%d leaves %d samples beyond it", n, p, n-nearestRank(p, n))
		}
	}
}
