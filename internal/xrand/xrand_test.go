package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed generators diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := New(7)
	c1 := r.Split()
	c2 := r.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("two children of the same parent start identically")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(4)
	counts := make([]int, 7)
	for i := 0; i < 70000; i++ {
		counts[r.Intn(7)]++
	}
	for v, c := range counts {
		if c < 9000 || c > 11000 {
			t.Errorf("Intn(7) bucket %d count %d, want ~10000", v, c)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nPowerOfTwo(t *testing.T) {
	r := New(5)
	for i := 0; i < 1000; i++ {
		if v := r.Uint64n(16); v >= 16 {
			t.Fatalf("Uint64n(16) = %d", v)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(6)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Normal(5, 2)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-5) > 0.05 {
		t.Errorf("Normal mean = %v, want ~5", mean)
	}
	if math.Abs(math.Sqrt(variance)-2) > 0.05 {
		t.Errorf("Normal stdev = %v, want ~2", math.Sqrt(variance))
	}
}

func TestExponentialMean(t *testing.T) {
	r := New(8)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exponential(3)
	}
	if m := sum / n; math.Abs(m-3) > 0.1 {
		t.Errorf("Exponential mean = %v, want ~3", m)
	}
}

func TestBoundedParetoRange(t *testing.T) {
	r := New(9)
	for i := 0; i < 10000; i++ {
		v := r.BoundedPareto(1.5, 2, 100)
		if v < 2 || v > 100 {
			t.Fatalf("BoundedPareto out of range: %v", v)
		}
	}
}

// TestParetoMatchesFormula pins the prepared sampler to the inverse-CDF
// expression computed from scratch on every draw, bit for bit.
func TestParetoMatchesFormula(t *testing.T) {
	for _, c := range []struct{ alpha, lo, hi float64 }{
		{1.05, 120, 14 * 86_400}, {1.3, 4, 372.5}, {1.2, 4, 512}, {1.3, 0.05, 200},
	} {
		p := NewPareto(c.alpha, c.lo, c.hi)
		r, ref := New(5), New(5)
		for i := 0; i < 1000; i++ {
			u := ref.Float64()
			la, ha := math.Pow(c.lo, c.alpha), math.Pow(c.hi, c.alpha)
			want := math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/c.alpha)
			if got := p.Sample(r); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("Pareto(%v, %v, %v) draw %d = %v, formula gives %v", c.alpha, c.lo, c.hi, i, got, want)
			}
		}
	}
}

// TestBoundedParetoPanics: parameters without a distribution are refused
// instead of sampled. Sampled, alpha = 0 would return 1 whatever the
// bounds, a negative alpha would draw from a distribution that is not
// Pareto, and a NaN or infinite parameter would return NaN.
func TestBoundedParetoPanics(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name          string
		alpha, lo, hi float64
	}{
		{"lo-zero", 1, 0, 1},
		{"hi-below-lo", 1, 5, 4},
		{"hi-equals-lo", 1, 4, 4},
		{"alpha-zero", 0, 120, 1000},
		{"alpha-negative", -1, 120, 1000},
		{"alpha-nan", nan, 120, 1000},
		{"alpha-inf", inf, 120, 1000},
		{"lo-nan", 1.3, nan, 1000},
		{"hi-nan", 1.3, 120, nan},
		{"lo-inf", 1.3, inf, inf},
		{"hi-inf", 1.3, 120, inf},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("BoundedPareto(%v, %v, %v) did not panic", c.alpha, c.lo, c.hi)
				}
			}()
			New(1).BoundedPareto(c.alpha, c.lo, c.hi)
		})
	}
}

func TestBoolProbabilities(t *testing.T) {
	r := New(10)
	if r.Bool(0) {
		t.Error("Bool(0) returned true")
	}
	if !r.Bool(1) {
		t.Error("Bool(1) returned false")
	}
	hits := 0
	for i := 0; i < 100000; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	if hits < 28000 || hits > 32000 {
		t.Errorf("Bool(0.3) hit %d/100000", hits)
	}
}

func TestPermIsPermutation(t *testing.T) {
	check := func(seed uint64, n uint8) bool {
		if n == 0 {
			return true
		}
		p := New(seed).Perm(int(n))
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= int(n) || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestPoissonMean(t *testing.T) {
	for _, mean := range []float64{0.5, 4, 30, 120} {
		r := New(11)
		const n = 50000
		sum := 0
		for i := 0; i < n; i++ {
			sum += r.Poisson(mean)
		}
		got := float64(sum) / n
		if math.Abs(got-mean) > 0.05*mean+0.05 {
			t.Errorf("Poisson(%v) empirical mean %v", mean, got)
		}
	}
}

func TestPoissonNonNegative(t *testing.T) {
	r := New(12)
	if r.Poisson(-1) != 0 {
		t.Error("Poisson of negative mean should be 0")
	}
	for i := 0; i < 1000; i++ {
		if r.Poisson(100) < 0 {
			t.Fatal("negative Poisson draw")
		}
	}
}

func TestLogNormalPositive(t *testing.T) {
	r := New(13)
	for i := 0; i < 10000; i++ {
		if v := r.LogNormal(0, 2); v <= 0 {
			t.Fatalf("LogNormal emitted non-positive %v", v)
		}
	}
}

func TestSplitMixPositional(t *testing.T) {
	// Positional derivation: SplitMix(seed, i) depends only on (seed, i).
	if SplitMix(9, 3) != SplitMix(9, 3) {
		t.Fatal("SplitMix not deterministic")
	}
	seen := map[uint64]bool{}
	for i := uint64(0); i < 1000; i++ {
		seen[SplitMix(9, i)] = true
	}
	if len(seen) != 1000 {
		t.Errorf("child seeds collide: %d distinct of 1000", len(seen))
	}
	if SplitMix(9, 5) == SplitMix(10, 5) {
		t.Error("different parents produced the same child seed")
	}
}

func TestNewAtMatchesSplitMix(t *testing.T) {
	a := NewAt(77, 4)
	b := New(SplitMix(77, 4))
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("NewAt diverges from New(SplitMix(...))")
		}
	}
}

func TestNewAtStreamsIndependent(t *testing.T) {
	// Adjacent work items must not correlate: check first draws differ.
	a, b := NewAt(5, 0), NewAt(5, 1)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d of 64 draws identical across adjacent streams", same)
	}
}
