package nand

import (
	"math"
	"testing"
)

// refWorstCodewordErrors is the plain sampler worstCodewordErrors replaced:
// exp(-mean) computed up front for every page, then Knuth's method (or the
// normal approximation) per codeword. It is the oracle the lean sampler
// must match draw for draw.
func refWorstCodewordErrors(c *Chip, rber float64) int {
	ncw := c.geo.PageSize / codewordBytes
	if ncw < 1 {
		ncw = 1
	}
	mean := rber * float64(codewordBytes*8)
	l := math.Exp(-mean)
	worst := 0
	for i := 0; i < ncw; i++ {
		if k := refPoisson(c, mean, l); k > worst {
			worst = k
		}
	}
	return worst
}

func refPoisson(c *Chip, mean, l float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		k := int(mean + math.Sqrt(mean)*c.rng.NormFloat64() + 0.5)
		if k < 0 {
			k = 0
		}
		return k
	}
	k := 0
	p := 1.0
	for {
		p *= c.rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// TestSamplerMatchesReference runs the lean sampler and the plain one on
// twin chips over many seeds and a grid of means that spans the
// no-exp fast path, the Knuth loop, both sides of the normal cut-over and
// the zero mean. Every count must agree, and both RNGs must end in the
// same state (the next draw agrees), so no draw was added or skipped.
func TestSamplerMatchesReference(t *testing.T) {
	means := []float64{0, 1e-12, 1e-8, 1e-4, 0.01, 0.5, 0.999, 1, 5, 29.99, 30, 30.01, 80}
	const seeds, pages = 40, 200
	slow := 0 // pages with a nonzero count, which only the Knuth loop yields
	for _, pageSize := range []int{512, 4096, 16384} {
		for seed := int64(1); seed <= seeds; seed++ {
			mutate := func(c *Config) {
				c.Seed = seed
				c.Geometry.PageSize = pageSize
			}
			lean, ref := newTestChip(t, mutate), newTestChip(t, mutate)
			for _, mean := range means {
				rber := mean / float64(codewordBytes*8)
				for pg := 0; pg < pages; pg++ {
					got, want := lean.worstCodewordErrors(rber), refWorstCodewordErrors(ref, rber)
					if got != want {
						t.Fatalf("page %d, seed %d, mean %g: lean sampler = %d, reference = %d",
							pageSize, seed, mean, got, want)
					}
					if mean > 0 && mean <= 30 && got > 0 {
						slow++
					}
				}
				if a, b := lean.rng.Int63(), ref.rng.Int63(); a != b {
					t.Fatalf("page %d, seed %d, mean %g: RNG diverged after sampling (%d vs %d)",
						pageSize, seed, mean, a, b)
				}
			}
		}
	}
	if slow == 0 {
		t.Fatal("no page took the Knuth loop; the grid does not exercise it")
	}
}

// TestSamplerBoundBelowExp checks the fast path's premise on a dense
// sweep: the no-exp bound never exceeds math.Exp(-mean), so a draw the
// bound accepts is one Knuth's first step accepts too.
func TestSamplerBoundBelowExp(t *testing.T) {
	for e := -300.0; e <= 1.5; e += 0.001 {
		mean := math.Pow(10, e)
		for _, m := range []float64{mean, math.Nextafter(mean, 0), math.Nextafter(mean, 2)} {
			if sure := 1 - m - expMargin; sure > math.Exp(-m) {
				t.Fatalf("mean %g: bound %v above exp %v", m, sure, math.Exp(-m))
			}
		}
	}
}
