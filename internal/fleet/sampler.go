package fleet

import (
	"math/rand"

	"flashwear/internal/appmodel"
)

// MixSeed derives sub-seed n of root with a splitmix64 finalizer: device
// i's seed from the run's, and in fleetd every boot's RNG streams from
// (device seed, day). Well-distributed, and a pure function of (root, n).
func MixSeed(root, n int64) int64 {
	z := uint64(root) + 0x9e3779b97f4a7c15*uint64(n+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// Params are one simulated device's fully sampled parameters.
type Params struct {
	Index int
	// Seed personalises the device stack (NAND variation, workload
	// offsets); it already replaces the profile's calibration seed.
	Seed  int64
	Class Class
	// DailyBytes is the paced full-scale write rate; 0 means unpaced
	// (ClassAttack writes at device speed).
	DailyBytes int64
	// profile is the index of the sampled device model in Spec.Profiles.
	profile int
}

// ProfileIndex returns the index of the sampled profile in the spec's
// Profiles mix — exported so internal/fleetd can re-derive the same device
// stack from the same Spec.
func (p Params) ProfileIndex() int { return p.profile }

// Sample derives device i's parameters. It draws from an RNG seeded by
// MixSeed alone, so it is a pure function of (Spec.Seed, i) — the heart
// of the order-independence argument in the package documentation. It is
// exported for internal/fleetd, whose sharded campaigns must sample the
// identical population for any shard count.
func (s Spec) Sample(i int) Params {
	seed := MixSeed(s.Seed, int64(i))
	rng := rand.New(rand.NewSource(seed))
	pIdx := pickWeighted(rng, weightsOf(s.Profiles))
	cIdx := pickWeighted(rng, classWeightsOf(s.Classes))
	class := s.Classes[cIdx].Class
	var daily int64
	switch class {
	case ClassBenign:
		daily = appmodel.SampleBenignDailyBytes(rng)
	case ClassBuggy:
		daily = appmodel.SampleBuggyDailyBytes(rng)
	}
	return Params{
		Index:      i,
		Seed:       seed,
		Class:      class,
		DailyBytes: daily,
		profile:    pIdx,
	}
}

// pickWeighted draws an index proportionally to ws (validated non-negative
// with a positive sum).
func pickWeighted(rng *rand.Rand, ws []float64) int {
	var total float64
	for _, w := range ws {
		//flashvet:ignore floataccum fixed-order sum over one device's config slice, never merged across workers
		total += w
	}
	r := rng.Float64() * total
	for i, w := range ws {
		//flashvet:ignore floataccum fixed-order walk of the same slice; identical for every worker count
		r -= w
		if r < 0 {
			return i
		}
	}
	return len(ws) - 1 // float round-off: the last positive weight wins
}
