package memuse

import (
	"math"
	"testing"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(GeneratorConfig{Jobs: 100, Seed: 5})
	b := Generate(GeneratorConfig{Jobs: 100, Seed: 5})
	for i := range a {
		if a[i].Nodes != b[i].Nodes || a[i].DurationH != b[i].DurationH {
			t.Fatalf("job %d differs across same-seed generations", i)
		}
	}
}

func TestGeneratePanicsOnZeroJobs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero jobs accepted")
		}
	}()
	Generate(GeneratorConfig{})
}

func TestUtilizationInRange(t *testing.T) {
	for _, j := range Generate(GeneratorConfig{Jobs: 2000, Seed: 1}) {
		if j.Nodes < 1 || len(j.PeakUtil) != j.Nodes {
			t.Fatalf("job %d shape: nodes=%d peaks=%d", j.JobID, j.Nodes, len(j.PeakUtil))
		}
		for _, u := range j.PeakUtil {
			if u < 0 || u > 1 {
				t.Fatalf("utilization %v out of range", u)
			}
		}
		if j.DurationH <= 0 {
			t.Fatalf("non-positive duration %v", j.DurationH)
		}
	}
}

func TestAnalyzeMatchesFig1(t *testing.T) {
	jobs := Generate(GeneratorConfig{Jobs: 58_000, Seed: 1})
	f := Analyze(jobs)
	// Fig 1 (Grizzly): ~43% of jobs stay <25% on every node, ~62% <50%.
	if math.Abs(f.Under25-0.43) > 0.08 {
		t.Errorf("under-25%% fraction %.3f, want ~0.43", f.Under25)
	}
	if math.Abs(f.Under50-0.62) > 0.08 {
		t.Errorf("under-50%% fraction %.3f, want ~0.62", f.Under50)
	}
	if f.Under25 > f.Under50 {
		t.Error("under-25 fraction exceeds under-50")
	}
}

func TestWeightsSumToOne(t *testing.T) {
	f := Fractions{Under25: 0.43, Under50: 0.62}
	w25, w50, wOver := f.Weights()
	if math.Abs(w25+w50+wOver-1) > 1e-12 {
		t.Errorf("weights sum %v", w25+w50+wOver)
	}
	if w25 != 0.43 || math.Abs(w50-0.19) > 1e-12 {
		t.Errorf("weights %v %v %v", w25, w50, wOver)
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	if f := Analyze(nil); f.Under25 != 0 || f.Under50 != 0 {
		t.Errorf("empty analysis %+v", f)
	}
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		peaks []float64
		want  Bucket
	}{
		{[]float64{0.1, 0.2}, BucketUnder25},
		{[]float64{0.1, 0.3}, BucketUnder50},
		{[]float64{0.1, 0.9}, BucketOver50},
		{[]float64{0.25}, BucketUnder50}, // boundary: 25% is not <25%
		{[]float64{0.5}, BucketOver50},   // boundary: 50% is not <50%
	}
	for _, c := range cases {
		j := JobUsage{Nodes: len(c.peaks), PeakUtil: c.peaks}
		if got := BucketOf(&j); got != c.want {
			t.Errorf("BucketOf(%v) = %v, want %v", c.peaks, got, c.want)
		}
	}
}

func TestBucketStrings(t *testing.T) {
	if BucketUnder25.String() != "[0~25%)" || BucketOver50.String() != "[50~100%]" {
		t.Error("bucket labels wrong")
	}
}

func TestMaxPeak(t *testing.T) {
	j := JobUsage{PeakUtil: []float64{0.2, 0.7, 0.4}}
	if j.MaxPeak() != 0.7 {
		t.Errorf("MaxPeak = %v", j.MaxPeak())
	}
}
