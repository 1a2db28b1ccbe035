// Package sim provides small deterministic building blocks shared by the
// simulator: a seedable PRNG and time/heap helpers. Everything in the
// repository that needs randomness goes through sim.Rand so that whole
// experiments are reproducible from a single seed.
package sim

import (
	"math"
	"sync"
)

// Rand is a deterministic pseudo-random generator based on splitmix64.
// It is not safe for concurrent use; give each simulated thread its own.
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded with seed. Two generators with the
// same seed produce identical sequences.
func NewRand(seed uint64) *Rand {
	return &Rand{state: seed + 0x9e3779b97f4a7c15}
}

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("sim: Uint64n with zero n")
	}
	return r.Uint64() % n
}

// Exp returns an exponentially distributed value with the given mean.
func (r *Rand) Exp(mean float64) float64 {
	u := r.Float64()
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	return -mean * math.Log(1-u)
}

// Norm returns a normally distributed value with the given mean and
// standard deviation (Box-Muller).
func (r *Rand) Norm(mean, stddev float64) float64 {
	u1 := r.Float64()
	u2 := r.Float64()
	if u1 <= 0 {
		u1 = math.SmallestNonzeroFloat64
	}
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// Pareto returns a bounded Pareto-ish heavy-tailed value with the given
// minimum and shape alpha (> 0). Larger alpha means lighter tails.
func (r *Rand) Pareto(min, alpha float64) float64 {
	u := r.Float64()
	if u >= 1 {
		u = 1 - math.SmallestNonzeroFloat64
	}
	return min / math.Pow(1-u, 1/alpha)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	return r.Float64() < p
}

// Fork derives a new independent generator from this one's stream.
func (r *Rand) Fork() *Rand {
	return NewRand(r.Uint64())
}

// Zipf draws from a Zipfian distribution over [0, n) with skew s (> 0,
// typically ~0.99 for YCSB). It uses the rejection method of Gray et al.
// adapted for repeated draws without precomputation tables.
type Zipf struct {
	r                *Rand
	n                uint64
	s                float64
	oneMinusS        float64
	zeta2, zetaN     float64
	alpha, eta, half float64
}

// NewZipf constructs a Zipf sampler over [0, n) with exponent s.
func NewZipf(r *Rand, n uint64, s float64) *Zipf {
	if n == 0 {
		panic("sim: NewZipf with zero n")
	}
	if s <= 0 || s == 1 {
		s = 0.99
	}
	z := &Zipf{r: r, n: n, s: s, oneMinusS: 1 - s}
	z.zeta2 = zeta(2, s)
	z.zetaN = zeta(n, s)
	z.alpha = 1 / (1 - s)
	z.eta = (1 - math.Pow(2/float64(n), 1-s)) / (1 - z.zeta2/z.zetaN)
	z.half = math.Pow(0.5, s)
	return z
}

// zetas memoizes zeta per (n, s): workloads build a Zipf sampler per
// run over the same few key spaces, and the exact part of the series
// costs 10,000 math.Pow calls.
var (
	zetasMu sync.Mutex
	zetas   = map[zetaKey]float64{}
)

type zetaKey struct {
	n uint64
	s float64
}

func zeta(n uint64, s float64) float64 {
	zetasMu.Lock()
	defer zetasMu.Unlock()
	k := zetaKey{n, s}
	z, ok := zetas[k]
	if !ok {
		z = zetaSum(n, s)
		zetas[k] = z
	}
	return z
}

func zetaSum(n uint64, s float64) float64 {
	// Truncated series; n can be large, so cap the exact sum and use the
	// integral approximation for the remainder.
	const exact = 10000
	sum := 0.0
	m := n
	if m > exact {
		m = exact
	}
	for i := uint64(1); i <= m; i++ {
		sum += math.Pow(float64(i), -s)
	}
	if n > exact && s != 1 {
		// integral of x^-s from exact to n
		sum += (math.Pow(float64(n), 1-s) - math.Pow(float64(exact), 1-s)) / (1 - s)
	}
	return sum
}

// Next returns the next Zipf-distributed value in [0, n).
func (z *Zipf) Next() uint64 {
	u := z.r.Float64()
	uz := u * z.zetaN
	if uz < 1 {
		return 0
	}
	if uz < 1+z.half {
		return 1
	}
	v := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if v >= z.n {
		v = z.n - 1
	}
	return v
}
