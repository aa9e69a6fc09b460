package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if m := Mean([]float64{1, 2, 3, 4}); m != 2.5 {
		t.Errorf("Mean = %v, want 2.5", m)
	}
}

func TestStdDev(t *testing.T) {
	if StdDev([]float64{5}) != 0 {
		t.Error("StdDev of singleton != 0")
	}
	// Known sample: {2,4,4,4,5,5,7,9} has sample stdev ~2.138
	got := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if !approx(got, 2.13809, 1e-4) {
		t.Errorf("StdDev = %v, want 2.13809", got)
	}
}

func TestCI99(t *testing.T) {
	xs := []float64{10, 12, 14, 16, 18}
	want := 2.5758293035489004 * StdDev(xs) / math.Sqrt(5)
	if got := CI99(xs); !approx(got, want, 1e-12) {
		t.Errorf("CI99 = %v, want %v", got, want)
	}
	if CI99([]float64{1}) != 0 {
		t.Error("CI99 of singleton != 0")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {75, 4}, {10, 1.4},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !approx(got, c.want, 1e-9) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Percentile of empty slice did not panic")
		}
	}()
	Percentile(nil, 50)
}

// TestPercentiles: one sorted copy answers every rank exactly as a
// Percentile call per rank does, and the input keeps its order.
func TestPercentiles(t *testing.T) {
	xs := []float64{9, 1, 7, 3, 3, 8, 2, 6, 0.5, 4}
	ps := []float64{0, 5, 25, 50, 95, 99.9, 100}
	got := Percentiles(xs, ps...)
	for i, p := range ps {
		if want := Percentile(xs, p); got[i] != want {
			t.Errorf("Percentiles rank %v = %v, Percentile gives %v", p, got[i], want)
		}
	}
	if xs[0] != 9 || xs[9] != 4 {
		t.Error("Percentiles reordered its input")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Percentiles with p = 101 did not panic")
		}
	}()
	Percentiles(xs, 50, 101)
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Errorf("Min/Max = %v/%v", Min(xs), Max(xs))
	}
}

func TestFractions(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if f := FractionAtLeast(xs, 3); f != 0.5 {
		t.Errorf("FractionAtLeast = %v", f)
	}
	if FractionAtLeast(nil, 1) != 0 {
		t.Error("empty-slice fractions should be 0")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{600, 800, 1000})
	if s.N != 3 || s.Mean != 800 || s.Min != 600 || s.Max != 1000 {
		t.Errorf("Summarize = %+v", s)
	}
	if s.String() == "" {
		t.Error("empty String()")
	}
	if z := Summarize(nil); z.N != 0 {
		t.Errorf("Summarize(nil) = %+v", z)
	}
}

// Property: mean is always within [min, max], stdev is non-negative.
func TestSummaryInvariants(t *testing.T) {
	check := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		s := Summarize(xs)
		return s.Mean >= s.Min-1e-9 && s.Mean <= s.Max+1e-9 && s.StdDev >= 0
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

// Property: percentile is monotone in p.
func TestPercentileMonotone(t *testing.T) {
	check := func(raw []int16, a, b uint8) bool {
		if len(raw) == 0 {
			return true
		}
		pa, pb := float64(a%101), float64(b%101)
		if pa > pb {
			pa, pb = pb, pa
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		return Percentile(xs, pa) <= Percentile(xs, pb)+1e-9
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}
