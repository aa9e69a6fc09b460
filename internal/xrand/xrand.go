// Package xrand provides a deterministic, seedable pseudo-random number
// generator and the statistical samplers the simulators in this repository
// need (normal, log-normal, exponential, bounded Pareto).
//
// Every experiment in the repository draws all of its randomness from an
// explicit *xrand.Rand so that results are reproducible bit-for-bit across
// runs and machines. The generator is xoshiro256**, seeded through
// splitmix64 as its authors recommend.
package xrand

import (
	"fmt"
	"math"
)

// Rand is a deterministic pseudo-random number generator.
// It is NOT safe for concurrent use; give each goroutine its own Rand
// (see Split).
type Rand struct {
	s [4]uint64
	// cached second normal variate from the Box-Muller transform
	haveGauss bool
	gauss     float64
}

// splitmix64 advances the seed and returns the next splitmix64 output.
func splitmix64(x *uint64) uint64 {
	*x += 0x9E3779B97F4A7C15
	z := *x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// New returns a generator seeded from the given seed. Two generators built
// from the same seed produce identical streams.
func New(seed uint64) *Rand {
	r := &Rand{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// xoshiro must not be seeded with all zeros; splitmix64 cannot emit
	// four consecutive zeros, so the state is already valid.
	return r
}

// Split derives an independent generator from r's stream. The child's
// sequence is statistically independent of subsequent draws from r, which
// lets one seed fan out into per-component generators deterministically.
func (r *Rand) Split() *Rand {
	return New(r.Uint64() ^ 0xD1B54A32D192ED03)
}

// SplitMix derives the seed of work item i from a parent seed: the
// (i+1)-th output of the splitmix64 stream seeded with seed. Unlike
// Split, the derivation is positional — it depends only on (seed, i), not
// on how many seeds were drawn before — so parallel workers can seed
// item i's generator without coordinating, and the resulting streams are
// identical no matter how items are scheduled across workers.
func SplitMix(seed, i uint64) uint64 {
	x := seed + i*0x9E3779B97F4A7C15
	return splitmix64(&x)
}

// NewAt returns the generator for work item i of a computation seeded
// with seed: New(SplitMix(seed, i)). Every (seed, i) pair yields the same
// stream on every machine, which is the contract the parallel experiment
// engine relies on for bit-identical sequential and parallel runs.
func NewAt(seed, i uint64) *Rand {
	return New(SplitMix(seed, i))
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 uniformly random bits.
func (r *Rand) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n) using Lemire's method
// with rejection to remove modulo bias. It panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n with zero n")
	}
	// Rejection sampling on the top bits keeps the distribution exact.
	mask := ^uint64(0)
	if n&(n-1) == 0 { // power of two
		return r.Uint64() & (n - 1)
	}
	limit := mask - mask%n
	for {
		v := r.Uint64()
		if v < limit {
			return v % n
		}
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Normal returns a normally distributed float64 with the given mean and
// standard deviation, via the Box-Muller transform.
func (r *Rand) Normal(mean, stdev float64) float64 {
	if r.haveGauss {
		r.haveGauss = false
		return mean + stdev*r.gauss
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	r.gauss = v * f
	r.haveGauss = true
	return mean + stdev*u*f
}

// LogNormal returns exp(N(mu, sigma)). mu and sigma are the parameters of
// the underlying normal, not the mean/stdev of the result.
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// Exponential returns an exponentially distributed float64 with the given
// mean (i.e. rate 1/mean).
func (r *Rand) Exponential(mean float64) float64 {
	u := r.Float64()
	// Guard against log(0).
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// BoundedPareto samples a Pareto(alpha) distribution truncated to
// [lo, hi]. It is the standard heavy-tail model for HPC job runtimes and
// node counts. It panics on the parameters NewPareto refuses; a caller
// that draws many values from one distribution should prepare it once
// with NewPareto.
func (r *Rand) BoundedPareto(alpha, lo, hi float64) float64 {
	return NewPareto(alpha, lo, hi).Sample(r)
}

// Pareto is a bounded Pareto(alpha) distribution on [lo, hi], prepared
// once so that each draw skips the two powers of its bounds.
type Pareto struct {
	alpha  float64
	la, ha float64 // lo^alpha, hi^alpha
}

// NewPareto prepares a Pareto(alpha) distribution truncated to [lo, hi].
// It panics unless alpha is positive and finite and 0 < lo < hi < +Inf;
// every comparison with a NaN is false, so a NaN parameter is refused.
func NewPareto(alpha, lo, hi float64) Pareto {
	if !(alpha > 0) || math.IsInf(alpha, 1) || !(lo > 0) || !(hi > lo) || math.IsInf(hi, 1) {
		panic(fmt.Sprintf("xrand: bounded Pareto requires 0 < alpha < +Inf and 0 < lo < hi < +Inf (alpha %v, lo %v, hi %v)", alpha, lo, hi))
	}
	return Pareto{alpha: alpha, la: math.Pow(lo, alpha), ha: math.Pow(hi, alpha)}
}

// Sample draws one value from p with r's next uniform variate.
func (p Pareto) Sample(r *Rand) float64 {
	u := r.Float64()
	return math.Pow(-(u*p.ha-u*p.la-p.ha)/(p.ha*p.la), -1/p.alpha)
}

// Perm returns a uniformly random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Poisson returns a Poisson-distributed count with the given mean, using
// Knuth's method for small means and normal approximation for large ones.
func (r *Rand) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 60 {
		// Normal approximation with continuity correction.
		v := r.Normal(mean, math.Sqrt(mean))
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
