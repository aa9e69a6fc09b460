package main

import (
	"fmt"
	"io"
	"math"
)

// verdict classifies one (workload, end-to-end metric) pair of a
// parent and a change result.
type verdict struct {
	Workload, Metric string
	Parent, Change   summary
	Wins, Pairs      int
	Verdict          string // improved, unchanged, regressed or unresolved
}

// judge applies the benchmark's rule to one metric:
//   - improved: over at least ten pairs (sample i of each side), the
//     change wins at least nine tenths (ties count for neither) and the
//     medians differ by more than the parent's interquartile range;
//   - regressed: the change's median is worse than the parent's by more
//     than the metric's bound;
//   - unresolved: otherwise, when either side's spread exceeds the bound,
//     unless every change sample reads better than every parent sample;
//   - unchanged: otherwise.
func judge(p, c *metricResult, bound float64) (v string, wins, pairs int) {
	better := func(a, b float64) bool {
		if p.Better == "higher" {
			return a > b
		}
		return a < b
	}
	pairs = min(len(p.Samples), len(c.Samples))
	for i := 0; i < pairs; i++ {
		if better(c.Samples[i], p.Samples[i]) {
			wins++
		}
	}
	diff := c.Median - p.Median
	if pairs >= 10 && 10*wins >= 9*pairs && better(c.Median, p.Median) && math.Abs(diff) > p.Q3-p.Q1 {
		return "improved", wins, pairs
	}
	worse := diff / p.Median
	if p.Better == "higher" {
		worse = -worse
	}
	if p.Median != 0 && worse > bound {
		return "regressed", wins, pairs
	}
	if p.spread() > bound || c.spread() > bound {
		for _, cs := range c.Samples {
			for _, ps := range p.Samples {
				if !better(cs, ps) {
					return "unresolved", wins, pairs
				}
			}
		}
	}
	return "unchanged", wins, pairs
}

// compareResults judges every end-to-end metric of every workload the
// two results share, one row per (workload, metric).
func compareResults(parent, change *result) []verdict {
	var out []verdict
	for _, pw := range parent.Workloads {
		for _, cw := range change.Workloads {
			if pw.Name != cw.Name {
				continue
			}
			for _, d := range endToEnd {
				p, c := pw.Metrics[d.Name], cw.Metrics[d.Name]
				if p == nil || c == nil {
					continue
				}
				v, wins, pairs := judge(p, c, d.Bound)
				out = append(out, verdict{pw.Name, d.Name, p.summary, c.summary, wins, pairs, v})
			}
		}
	}
	return out
}

// printVerdicts writes one row per verdict and reports whether any
// metric regressed.
func printVerdicts(w io.Writer, vs []verdict) (regressed bool) {
	fmt.Fprintf(w, "%-12s %-9s %12s %12s %8s %6s  %s\n", "workload", "metric", "parent", "change", "delta", "wins", "verdict")
	for _, v := range vs {
		delta := 0.0
		if v.Parent.Median != 0 {
			delta = 100 * (v.Change.Median - v.Parent.Median) / v.Parent.Median
		}
		fmt.Fprintf(w, "%-12s %-9s %12.6g %12.6g %+7.2f%% %3d/%-2d  %s\n",
			v.Workload, v.Metric, v.Parent.Median, v.Change.Median, delta, v.Wins, v.Pairs, v.Verdict)
		regressed = regressed || v.Verdict == "regressed"
	}
	return regressed
}
