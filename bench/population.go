package main

import (
	"fmt"

	"flashwear/internal/appmodel"
	"flashwear/internal/fleet"
)

// A fleet's cost is dominated by its few heavy devices: an unpaced attack
// phone costs about 400 times a benign one, and a buggy phone's cost follows
// its log-normal daily volume. Drawn freely, three attack phones among 64
// become one or six with another seed, and the host time per device-day
// changes several-fold — the seed would change how much work is measured,
// not which. So the seed picks the population among those with one fixed
// composition: the benchmark walks a seed-derived sequence of root seeds and
// hands fleet the first whose sampled population (fleet.Spec.Sample, a pure
// function of the root seed) has exactly the wanted heavy devices. Which
// devices they are, their own seeds, and every light device still vary.

// composition is the heavy part of a population.
type composition struct {
	// attack and buggy are exact device counts per profile index of the
	// spec's mix.
	attack, buggy []int
	// buggyBytesTol is how far the buggy devices' summed daily volume may
	// sit from its expectation, as a fraction.
	buggyBytesTol float64
	// capacityTol, when positive, is how far the population's summed
	// device capacity may sit from its expectation, as a fraction. A
	// checkpointed device-day costs in proportion to the chip state it
	// exports, imports, scans and encodes, which follows capacity.
	capacityTol float64
}

// maxCandidates bounds the search; the committed compositions are found
// within a few thousand candidates.
const maxCandidates = 200_000

// candidateSeed is the k-th root seed tried for a benchmark seed.
func candidateSeed(seed int64, k int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(k+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1) // non-negative, for readable logs
}

// matches reports whether spec's population has the composition.
func (c composition) matches(spec fleet.Spec) bool {
	attack := make([]int, len(spec.Profiles))
	buggy := make([]int, len(spec.Profiles))
	var buggyBytes, buggyCount, capacity int64
	for i := 0; i < spec.Devices; i++ {
		p := spec.Sample(i)
		capacity += spec.Profiles[p.ProfileIndex()].Profile.CapacityBytes
		switch p.Class {
		case fleet.ClassAttack:
			attack[p.ProfileIndex()]++
			if attack[p.ProfileIndex()] > c.attack[p.ProfileIndex()] {
				return false
			}
		case fleet.ClassBuggy:
			buggy[p.ProfileIndex()]++
			if buggy[p.ProfileIndex()] > c.buggy[p.ProfileIndex()] {
				return false
			}
			buggyBytes += p.DailyBytes
			buggyCount++
		}
	}
	for i := range attack {
		if attack[i] != c.attack[i] || buggy[i] != c.buggy[i] {
			return false
		}
	}
	if c.capacityTol > 0 {
		var mean, weights float64
		for _, pw := range spec.Profiles {
			mean += pw.Weight * float64(pw.Profile.CapacityBytes)
			weights += pw.Weight
		}
		if !within(float64(capacity), float64(spec.Devices)*mean/weights, c.capacityTol) {
			return false
		}
	}
	// The sampler's log-normal has median 1 and sigma 0.5: mean e^(1/8).
	return within(float64(buggyBytes), float64(buggyCount)*float64(appmodel.NominalDailyBytes()["spotify-bug"])*1.1331, c.buggyBytesTol)
}

// within reports whether got is within the fraction tol of want.
func within(got, want, tol float64) bool {
	return got >= want*(1-tol) && got <= want*(1+tol)
}

// pickRootSeed returns the first candidate root seed for seed whose
// population, sampled through spec, has the composition.
func pickRootSeed(spec fleet.Spec, seed int64, want composition) (int64, error) {
	spec = spec.Defaults()
	for k := 0; k < maxCandidates; k++ {
		spec.Seed = candidateSeed(seed, k)
		if want.matches(spec) {
			return spec.Seed, nil
		}
	}
	return 0, fmt.Errorf("no population with the wanted composition among %d candidates for seed %d", maxCandidates, seed)
}

// split divides n devices over the profiles of a mix as evenly as it can,
// earlier profiles first.
func split(n, profiles int) []int {
	out := make([]int, profiles)
	for i := 0; i < n; i++ {
		out[i%profiles]++
	}
	return out
}
