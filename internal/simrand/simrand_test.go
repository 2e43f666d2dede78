package simrand

import (
	"math/rand"
	"testing"
)

// oracleSeeds are the seeds TestMatchesMathRand replays: math/rand's
// special cases (0 maps to 89482311, negatives wrap, seeds reduce mod
// 2³¹−1) and wide values.
var oracleSeeds = []int64{
	0, 1, -1, 7, 89482311, int32max, -int32max, 1 << 40,
	int32max + 1, -1 << 63, 1<<63 - 1,
}

// bounds63 covers powers of two (the masked path), 1, and both sides of
// 2³¹, where Intn changes from Int31n to Int63n.
var bounds63 = []int64{
	1, 2, 3, 6, 8, 13, 50, 1000, 1 << 20, 1<<20 + 1, int32max - 1, int32max,
	1 << 31, 1<<31 + 1, 1 << 40, 3 << 40, 1<<62 + 1, 1 << 62, 1<<63 - 1,
}

// TestMatchesMathRand is the oracle: for each seed, every method with
// varying bounds, interleaved, reseeded mid-stream, must return what
// rand.New(rand.NewSource(seed)) returns, and so must the next draw after
// the sequence.
func TestMatchesMathRand(t *testing.T) {
	seeds := append([]int64(nil), oracleSeeds...)
	pick := rand.New(rand.NewSource(2024))
	for range 20 {
		seeds = append(seeds, int64(pick.Uint64()))
	}
	for _, seed := range seeds {
		want := rand.New(rand.NewSource(seed))
		got := New(seed)
		check := func(step int, method string, g, w any) {
			t.Helper()
			if g != w {
				t.Fatalf("seed %d step %d: %s = %v, math/rand %v", seed, step, method, g, w)
			}
		}
		for step := range 3000 {
			if step == 1500 {
				reseed := seed ^ int64(step)
				want.Seed(reseed)
				got.Seed(reseed)
			}
			n := bounds63[step%len(bounds63)]
			switch step % 9 {
			case 0:
				check(step, "Uint64", got.Uint64(), want.Uint64())
			case 1:
				check(step, "Int63", got.Int63(), want.Int63())
			case 2:
				check(step, "Int31", got.Int31(), want.Int31())
			case 3:
				check(step, "Float64", got.Float64(), want.Float64())
			case 4:
				check(step, "Int63n", got.Int63n(n), want.Int63n(n))
			case 5:
				// Repeat a bound so the cached threshold is reused.
				check(step, "Int63n", got.Int63n(n), want.Int63n(n))
				check(step, "Int63n", got.Int63n(n), want.Int63n(n))
			case 6:
				if n <= int32max {
					check(step, "Int31n", got.Int31n(int32(n)), want.Int31n(int32(n)))
				}
			case 7:
				check(step, "Intn", got.Intn(int(n)), want.Intn(int(n)))
			case 8:
				check(step, "NormFloat64", got.NormFloat64(), want.NormFloat64())
			}
		}
		check(-1, "next Int63", got.Int63(), want.Int63())
	}
}

// TestNormFloat64SharesTheStream checks that the lazily built normal
// sampler draws from the stream itself, not from a copy: draws before and
// after it, and a reseed between, stay in step with math/rand.
func TestNormFloat64SharesTheStream(t *testing.T) {
	want := rand.New(rand.NewSource(5))
	got := New(5)
	for i := range 200 {
		if g, w := got.NormFloat64(), want.NormFloat64(); g != w {
			t.Fatalf("draw %d: NormFloat64 = %v, math/rand %v", i, g, w)
		}
		if g, w := got.Float64(), want.Float64(); g != w {
			t.Fatalf("draw %d: Float64 = %v, math/rand %v", i, g, w)
		}
		if i == 100 {
			got.Seed(6)
			want.Seed(6)
		}
	}
}

// schrage is math/rand's seedrand, kept as the reference for the Mersenne
// reduction.
func schrage(x int32) int32 {
	const (
		A = 48271
		Q = 44488
		R = 3399
	)
	hi := x / Q
	lo := x % Q
	x = A*lo - R*hi
	if x < 0 {
		x += int32max
	}
	return x
}

// TestSeedrandMatchesSchrage checks the Mersenne reduction against
// Schrage's method on the edge values and on a dense sample of [0, 2³¹).
// Every x in that range was checked once, exhaustively; the sample keeps
// the test fast.
func TestSeedrandMatchesSchrage(t *testing.T) {
	edges := []int32{0, 1, 2, 44487, 44488, 44489, 48271, 89482311,
		int32max / 48271, int32max/48271 + 1, int32max - 2, int32max - 1, int32max}
	for _, x := range edges {
		if g, w := seedrand(x), schrage(x); g != w {
			t.Errorf("seedrand(%d) = %d, Schrage %d", x, g, w)
		}
	}
	for x := int64(3); x <= int32max; x += 1009 {
		if g, w := seedrand(int32(x)), schrage(int32(x)); g != w {
			t.Fatalf("seedrand(%d) = %d, Schrage %d", x, g, w)
		}
	}
}

// TestNewIsOneAllocation pins the allocation a chip, a device or an app
// pays per stream: the Rand itself, with no separate source.
func TestNewIsOneAllocation(t *testing.T) {
	seed := int64(1)
	if n := testing.AllocsPerRun(100, func() { seed++; sinkR = New(seed) }); n != 1 {
		t.Errorf("New: %v allocations, want 1", n)
	}
}

var (
	sinkR *Rand
	sinkF float64
)

func BenchmarkFloat64(b *testing.B) {
	r := New(1)
	for b.Loop() {
		sinkF += r.Float64()
	}
}

func BenchmarkMathRandFloat64(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	for b.Loop() {
		sinkF += r.Float64()
	}
}

func BenchmarkSeed(b *testing.B) {
	r := New(1)
	seed := int64(0)
	for b.Loop() {
		seed++
		r.Seed(seed)
	}
}

func BenchmarkMathRandSeed(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	seed := int64(0)
	for b.Loop() {
		seed++
		r.Seed(seed)
	}
}
