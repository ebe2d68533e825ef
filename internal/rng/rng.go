// Package rng implements the deterministic pseudo-random number
// generation substrate for the Monte-Carlo engine: a xoshiro256++
// generator seeded through SplitMix64, with polynomial jumps that carve
// a single seed into many statistically independent streams. The
// streams let the parallel Monte-Carlo workers draw from disjoint
// subsequences so results are reproducible regardless of scheduling.
package rng

import "math"

// Source is a xoshiro256++ pseudo-random generator. The zero value is
// not usable; construct with New.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from the given seed via SplitMix64, which
// guarantees a well-mixed non-zero state for any seed value.
func New(seed uint64) *Source {
	var src Source
	sm := seed
	for i := range src.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		src.s[i] = z ^ (z >> 31)
	}
	return &src
}

func rotl(x uint64, k uint) uint64 {
	return (x << k) | (x >> (64 - k))
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Source) Uint64() uint64 {
	result := rotl(r.s[0]+r.s[3], 23) + r.s[0]
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1) with 53 random bits.
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float64Open returns a uniform value in the open interval (0, 1),
// suitable for inverse-transform sampling where quantile functions may
// be infinite at 0 or 1.
func (r *Source) Float64Open() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return u
		}
	}
}

// jumpPoly is the xoshiro256 jump polynomial, equivalent to 2^128 calls
// to Uint64.
var jumpPoly = [4]uint64{
	0x180ec6d33cfd0aba, 0xd5a61266f0c9392c,
	0xa9582618e03fc9aa, 0x39abdc4529b1661c,
}

// Jump advances the generator by 2^128 steps. Calling Jump k times on a
// copy of a source yields a stream whose outputs never overlap the
// first 2^128 outputs of the original, giving independent parallel
// streams.
func (r *Source) Jump() {
	var s0, s1, s2, s3 uint64
	for _, jp := range jumpPoly {
		for b := 0; b < 64; b++ {
			if jp&(1<<uint(b)) != 0 {
				s0 ^= r.s[0]
				s1 ^= r.s[1]
				s2 ^= r.s[2]
				s3 ^= r.s[3]
			}
			r.Uint64()
		}
	}
	r.s = [4]uint64{s0, s1, s2, s3}
}

// Split returns n mutually independent sources derived from seed. The
// i-th source is the base generator advanced by i jumps, so any worker
// count yields the same per-stream sequences.
func Split(seed uint64, n int) []*Source {
	if n < 1 {
		n = 1
	}
	out := make([]*Source, n)
	base := New(seed)
	for i := range out {
		cp := *base
		out[i] = &cp
		base.Jump()
	}
	return out
}

// NormFloat64 returns a standard normal variate computed by the
// Marsaglia polar method. The library's distributions sample by inverse
// transform; this is provided for trace-noise generation.
func (r *Source) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// ExpFloat64 returns a rate-1 exponential variate by inversion.
func (r *Source) ExpFloat64() float64 {
	return -math.Log(1 - r.Float64())
}

// Uint64n returns a uniform value in [0, n) without modulo bias
// (rejection sampling on the top of the range). n must be positive.
func (r *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n(0)")
	}
	if n&(n-1) == 0 { // power of two
		return r.Uint64() & (n - 1)
	}
	// Reject values in the final partial block.
	max := ^uint64(0) - ^uint64(0)%n
	for {
		v := r.Uint64()
		if v < max {
			return v % n
		}
	}
}
