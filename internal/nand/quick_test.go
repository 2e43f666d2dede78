package nand

import (
	"testing"
	"testing/quick"
)

// Property: RBER is monotonically non-decreasing in wear for any valid
// model parameters.
func TestQuickRBERMonotone(t *testing.T) {
	f := func(base, growth uint8, w1, w2 uint16) bool {
		m := ErrorModel{
			BaseRBER:   float64(base)/255*1e-6 + 1e-12,
			RBERGrowth: float64(growth) / 16,
		}
		a := float64(w1) / 1000
		b := float64(w2) / 1000
		if a > b {
			a, b = b, a
		}
		return m.RBER(a) <= m.RBER(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: FailProb is monotone in wear and clamped to [0, 1].
func TestQuickFailProbBounds(t *testing.T) {
	f := func(w1, w2 uint16) bool {
		m := DefaultErrorModel()
		a, b := float64(w1)/100, float64(w2)/100
		if a > b {
			a, b = b, a
		}
		pa, pb := m.FailProb(a), m.FailProb(b)
		return pa <= pb && pa >= 0 && pb <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: any interleaving of valid program/erase sequences keeps the
// chip's invariants: erase counts never decrease, bytes programmed grows by
// exactly one page per successful or failed program, and the in-order
// programming rule is enforced.
func TestQuickChipInvariants(t *testing.T) {
	f := func(seed int64, ops []uint8) bool {
		c, err := New(Config{Geometry: testGeometry(), Cell: MLC, Seed: seed, RatedPE: 100_000})
		if err != nil {
			return false
		}
		g := c.Geometry()
		next := make([]int, g.Blocks())
		lastErase := make([]int, g.Blocks())
		for _, op := range ops {
			b := int(op) % g.Blocks()
			if op%3 == 0 {
				if _, err := c.EraseBlock(b); err == nil {
					next[b] = 0
				} else {
					next[b] = 0 // erase consumed the cycle either way
				}
				if c.EraseCount(b) < lastErase[b] {
					return false
				}
				lastErase[b] = c.EraseCount(b)
				continue
			}
			if next[b] >= g.PagesPerBlock {
				// Out-of-order / full block must be rejected.
				if _, err := c.ProgramPageOOB(PageAddr{b, next[b]}, nil, OOB{LP: -1}); err == nil {
					return false
				}
				continue
			}
			_, _ = c.ProgramPageOOB(PageAddr{b, next[b]}, nil, OOB{LP: -1})
			next[b]++
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: ShouldRetire is monotone in wear: once a block qualifies for
// retirement, more erases cannot un-qualify it.
func TestQuickRetirementMonotone(t *testing.T) {
	c, err := New(Config{Geometry: testGeometry(), Cell: MLC, RatedPE: 50, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	retired := false
	for i := 0; i < 120; i++ {
		_, _ = c.EraseBlock(1)
		now := c.ShouldRetire(1)
		if retired && !now {
			t.Fatalf("retirement flapped at erase %d", i)
		}
		retired = now
	}
	if !retired {
		t.Fatal("block never qualified for retirement at 2.4x rated wear")
	}
}

// TestReadDisturbGrowsErrors: hammering reads on one block without erasing
// raises its error rate until reads fail; an erase resets the exposure.
func TestReadDisturbGrowsErrors(t *testing.T) {
	em := DefaultErrorModel()
	em.ReadDisturbRBER = 1e-6 // exaggerated for the test
	c, err := New(Config{Geometry: testGeometry(), Cell: MLC, RatedPE: 100_000, Seed: 8, Errors: &em})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ProgramPageOOB(PageAddr{0, 0}, nil, OOB{LP: -1}); err != nil {
		t.Fatal(err)
	}
	sawFailure := false
	for i := 0; i < 5000; i++ {
		if _, _, err := c.ReadPage(PageAddr{0, 0}); err != nil {
			sawFailure = true
			break
		}
	}
	if !sawFailure {
		t.Fatal("read disturb never produced an uncorrectable read")
	}
	if c.blocks[0].reads == 0 {
		t.Fatal("read counter not tracked")
	}
	if _, err := c.EraseBlock(0); err != nil {
		t.Fatal(err)
	}
	if c.blocks[0].reads != 0 {
		t.Fatal("erase did not reset read-disturb exposure")
	}
}
