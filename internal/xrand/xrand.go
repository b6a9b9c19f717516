// Package xrand provides a small, deterministic, splittable pseudo-random
// number generator used by all simulations in this repository.
//
// The generator is xoshiro256** seeded through splitmix64, following the
// reference constructions by Blackman and Vigna. Compared to math/rand it
// offers two properties the simulator needs:
//
//   - Stability: the stream produced for a given seed is fixed by this
//     package, not by the Go release, so recorded experiment outputs stay
//     reproducible.
//   - Splittability: Split derives an independent child stream, which lets
//     each simulation iteration own a private generator. Parallel runs then
//     produce results that do not depend on goroutine scheduling.
package xrand

import "math"

// splitmix64 advances the given state and returns the next output of the
// splitmix64 sequence. It is used for seeding and for stream derivation.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Rand is a deterministic source of pseudo-random values. It is not safe for
// concurrent use; derive one Rand per goroutine with Split.
type Rand struct {
	s [4]uint64

	// cachedNorm holds the second variate produced by the polar method so
	// NormFloat64 can return it on the following call.
	cachedNorm    float64
	hasCachedNorm bool
}

// New returns a Rand seeded from the given seed. Distinct seeds yield
// (practically) non-overlapping streams.
func New(seed uint64) *Rand {
	var r Rand
	r.Seed(seed)
	return &r
}

// Seed resets the generator to the stream identified by seed.
func (r *Rand) Seed(seed uint64) {
	state := seed
	for i := range r.s {
		r.s[i] = splitmix64(&state)
	}
	// xoshiro256** requires a non-zero state; splitmix64 of any seed makes an
	// all-zero state astronomically unlikely, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	r.hasCachedNorm = false
}

// Split returns a new Rand whose stream is statistically independent of the
// parent's future output. The parent advances by one step.
func (r *Rand) Split() *Rand {
	return New(r.Uint64())
}

// SplitN returns n independent child generators. The parent advances n steps.
func (r *Rand) SplitN(n int) []*Rand {
	children := make([]*Rand, n)
	for i := range children {
		children[i] = r.Split()
	}
	return children
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
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

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0, mirroring
// math/rand.Intn: callers passing a non-positive bound have a programming
// error that must not be silently absorbed into the simulation.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with non-positive n")
	}
	return int(r.boundedUint64(uint64(n)))
}

// boundedUint64 returns a uniform value in [0, bound) using Lemire's
// multiply-shift rejection method, which avoids modulo bias.
func (r *Rand) boundedUint64(bound uint64) uint64 {
	if bound == 0 {
		return 0
	}
	for {
		x := r.Uint64()
		hi, lo := mul64(x, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return hi
		}
	}
}

// mul64 returns the 128-bit product of x and y as (hi, lo).
func mul64(x, y uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	x0, x1 := x&mask32, x>>32
	y0, y1 := y&mask32, y>>32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1 := t&mask32 + x0*y1
	hi = x1*y1 + t>>32 + w1>>32
	lo = x * y
	return hi, lo
}

// Range returns a uniform float64 in [lo, hi). It panics if hi < lo.
func (r *Rand) Range(lo, hi float64) float64 {
	if hi < lo {
		panic("xrand: Range called with hi < lo")
	}
	return lo + (hi-lo)*r.Float64()
}

// Bool returns true with probability p. Values of p outside [0,1] saturate.
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// NormFloat64 returns a standard normal variate using the Marsaglia polar
// method.
func (r *Rand) NormFloat64() float64 {
	if r.hasCachedNorm {
		r.hasCachedNorm = false
		return r.cachedNorm
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v //adhoclint:allow geomdist Marsaglia polar acceptance test, not a geometric distance
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.cachedNorm = v * f
		r.hasCachedNorm = true
		return u * f
	}
}
