// Package a exercises the globalrand analyzer: math/rand outside simrand,
// the process-global source and hard-coded seeds are banned; simrand
// streams seeded by the caller are the sanctioned idiom.
package a

import (
	"math/rand"
	randv2 "math/rand/v2"

	"flashwear/internal/simrand"
)

func draw(r *simrand.Rand) int {
	n := rand.Intn(6)                  // want `global rand\.Intn`
	rand.Shuffle(n, func(i, j int) {}) // want `global rand\.Shuffle`
	_ = rand.Float64()                 // want `global rand\.Float64`
	_ = randv2.N(6)                    // want `global rand\.N`
	return n + r.Intn(6)               // ok: injected simrand stream
}

func mathRandStream(seed int64) *rand.Rand { // want `rand\.Rand outside simrand`
	return rand.New(rand.NewSource(seed)) // want `rand\.New outside simrand` `rand\.NewSource outside simrand`
}

func mathRandDraw(r *rand.Rand) int { // want `rand\.Rand outside simrand`
	return r.Intn(6) // want `rand\.Intn outside simrand`
}

func pcg(seed uint64) *randv2.PCG { // want `rand\.PCG outside simrand`
	return randv2.NewPCG(seed, seed) // want `rand\.NewPCG outside simrand`
}

func fixedSeed() *simrand.Rand {
	return simrand.New(1) // want `hard-coded seed in simrand\.New`
}

func derivedSeed(seed int64) *simrand.Rand {
	return simrand.New(seed ^ 0x9e3779b9) // ok: seed flows from the caller
}

func waived() *simrand.Rand {
	//flashvet:ignore globalrand fixture corpus must be identical for every caller
	return simrand.New(77)
}
