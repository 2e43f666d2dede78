package ftl

import (
	"math/rand"
	"testing"

	"flashwear/internal/nand"
)

// refVictim is the float scan victim replaced: every full block scored,
// greedy as 1 - valid/ppb, ties toward fewer erases. It is the oracle the
// integer scan must match.
func refVictim(p *gcPool) int {
	best := -1
	var bestScore float64
	for b, s := range p.state {
		if s != sFull || b == p.relocating {
			continue
		}
		u := float64(p.valid[b]) / float64(p.ppb)
		if u >= 1 {
			continue // nothing reclaimable
		}
		var score float64
		switch p.policy {
		case GCCostBenefit:
			age := float64(p.seq - p.seqNo[b])
			score = (1 - u) / (1 + u) * (1 + age)
		default: // greedy: fewer valid pages first
			score = 1 - u
		}
		if best < 0 || score > bestScore ||
			(score == bestScore && p.chip.EraseCount(b) < p.chip.EraseCount(best)) {
			best, bestScore = b, score
		}
	}
	return best
}

// TestVictimMatchesFloatScan builds random pool states — ties in valid
// count and in erase count, a block under relocation, full blocks with no
// dead page, and free, open and bad blocks mixed in — and checks that
// victim picks what the float scan picks under both policies.
func TestVictimMatchesFloatScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, ppb := range []int{4, 16, 64} {
		cfg := testChipCfg(100_000)
		cfg.Geometry.PagesPerBlock = ppb
		chip, err := nand.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		nb := chip.Geometry().Blocks()
		// A few erase counts shared by many blocks, so valid ties often
		// fall through to the erase-count tie-break and then to the index.
		for b := 0; b < nb; b++ {
			for n := rng.Intn(3); n > 0; n-- {
				_, _ = chip.EraseBlock(b) // a rare organic erase failure still counts the cycle
			}
		}
		picked := 0
		for trial := 0; trial < 2000; trial++ {
			for _, policy := range []GCPolicy{GCGreedy, GCCostBenefit} {
				p := newGCPool(0, chip, &Config{GC: policy})
				p.seq = int64(rng.Intn(50))
				// A handful of valid counts, including 0 and ppb, so ties
				// and non-reclaimable full blocks are common.
				counts := []int32{0, int32(ppb), int32(rng.Intn(ppb + 1)), int32(rng.Intn(ppb + 1))}
				for b := 0; b < nb; b++ {
					p.state[b] = []blockState{sFree, sOpen, sFull, sFull, sFull, sBad}[rng.Intn(6)]
					p.valid[b] = counts[rng.Intn(len(counts))]
					p.seqNo[b] = p.seq - int64(rng.Intn(4))
				}
				if rng.Intn(2) == 0 {
					p.relocating = rng.Intn(nb)
				}
				want := refVictim(p)
				if got := p.victim(); got != want {
					t.Fatalf("ppb %d, trial %d, %v: victim = %d, float scan = %d", ppb, trial, policy, got, want)
				}
				if want >= 0 {
					picked++
				}
			}
		}
		if picked == 0 {
			t.Fatalf("ppb %d: no trial had a reclaimable block", ppb)
		}
	}
}
