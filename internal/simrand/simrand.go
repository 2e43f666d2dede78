// Copyright 2009 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

// Package simrand is the one seeded random source of the simulation. Every
// stream a run draws from — NAND failures and read errors, request
// offsets, fault plans, app behaviour, the fleet sampler — is a *Rand
// built by New from a seed the Spec derives.
//
// A *Rand returns exactly what rand.New(rand.NewSource(seed)) from
// math/rand returns, for every method it has, so that every fingerprint a
// run produces is what it was when the simulator used math/rand directly.
// The generator is a copy of math/rand's additive lagged Fibonacci source
// (Mitchell and Reeds): the 607-word ring, its tap and feed, and the
// seeding table rngCooked. The copy is a concrete type whose draws inline
// into the caller, where math/rand pays an interface call per draw. Its
// seeding computes the same Lehmer sequence as math/rand's Schrage step
// with a Mersenne reduction, which the package tests check against
// Schrage's. A change of algorithm (say, to math/rand/v2's PCG) moves every
// fingerprint and is an edit to this package alone.
package simrand

import "math/rand"

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
)

// Rand is a seeded stream. It is not safe for concurrent use.
type Rand struct {
	tap  int
	feed int
	vec  [rngLen]int64

	// n63 and max63 cache Int63n's rejection threshold for the last
	// bound: the request generators draw from the same bound every time.
	n63, max63 int64

	// norm runs math/rand's ziggurat over this stream; NormFloat64 is
	// rare, so it is built on first use and New stays one allocation.
	norm *rand.Rand
}

// New returns a stream seeded with seed.
func New(seed int64) *Rand {
	r := &Rand{}
	r.Seed(seed)
	return r
}

// seedrand returns x·48271 mod (2³¹−1), the Lehmer step math/rand seeds
// with. math/rand computes it with Schrage's method; for 0 ≤ x < 2³¹ the
// product fits in 47 bits, and folding its high bits onto its low ones is
// the same residue without a division.
func seedrand(x int32) int32 {
	p := uint64(x) * 48271
	r := p&int32max + p>>31
	if r >= int32max {
		r -= int32max
	}
	return int32(r)
}

// Seed resets the stream to the state New(seed) starts in.
func (r *Rand) Seed(seed int64) {
	r.tap = 0
	r.feed = rngLen - rngTap

	seed = seed % int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}

	x := int32(seed)
	for i := -20; i < rngLen; i++ {
		x = seedrand(x)
		if i >= 0 {
			u := int64(x) << 40
			x = seedrand(x)
			u ^= int64(x) << 20
			x = seedrand(x)
			u ^= int64(x)
			r.vec[i] = u ^ rngCooked[i]
		}
	}
}

// Uint64 returns a pseudo-random 64-bit value.
func (r *Rand) Uint64() uint64 {
	r.tap--
	if r.tap < 0 {
		r.tap += rngLen
	}
	r.feed--
	if r.feed < 0 {
		r.feed += rngLen
	}
	x := r.vec[r.feed] + r.vec[r.tap]
	r.vec[r.feed] = x
	return uint64(x)
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (r *Rand) Int63() int64 { return int64(r.Uint64() & rngMask) }

// Int31 returns a non-negative pseudo-random 31-bit integer.
func (r *Rand) Int31() int32 { return int32(r.Int63() >> 32) }

// Float64 returns a pseudo-random number in [0.0,1.0).
func (r *Rand) Float64() float64 {
	for {
		if f := float64(r.Int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}

// Int63n returns a pseudo-random number in [0,n). It panics if n <= 0.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("invalid argument to Int63n")
	}
	if n&(n-1) == 0 {
		return r.Int63() & (n - 1)
	}
	if n != r.n63 {
		r.n63, r.max63 = n, int64((1<<63)-1-(1<<63)%uint64(n))
	}
	v := r.Int63()
	for v > r.max63 {
		v = r.Int63()
	}
	return v % n
}

// Int31n returns a pseudo-random number in [0,n). It panics if n <= 0.
func (r *Rand) Int31n(n int32) int32 {
	if n <= 0 {
		panic("invalid argument to Int31n")
	}
	if n&(n-1) == 0 {
		return r.Int31() & (n - 1)
	}
	max := int32((1 << 31) - 1 - (1<<31)%uint32(n))
	v := r.Int31()
	for v > max {
		v = r.Int31()
	}
	return v % n
}

// Intn returns a pseudo-random number in [0,n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("invalid argument to Intn")
	}
	if n <= 1<<31-1 {
		return int(r.Int31n(int32(n)))
	}
	return int(r.Int63n(int64(n)))
}

// NormFloat64 returns a standard normal draw, math/rand's ziggurat over
// this stream.
func (r *Rand) NormFloat64() float64 {
	if r.norm == nil {
		r.norm = rand.New(r)
	}
	return r.norm.NormFloat64()
}
