package ftl

import (
	"testing"

	"flashwear/internal/nand"
)

// newTestCache builds a bare cachePool over a small SLC chip.
func newTestCache(t *testing.T, blocks, rated int) *cachePool {
	t.Helper()
	chip, err := nand.New(nand.Config{
		Geometry: nand.Geometry{
			Dies: 1, PlanesPerDie: 1, BlocksPerPlane: blocks,
			PagesPerBlock: 4, PageSize: 4096,
		},
		Cell: nand.SLC, RatedPE: rated, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	return newCachePool(chip)
}

func TestCacheRingFillsAndReportsNoSlot(t *testing.T) {
	c := newTestCache(t, 4, 100_000)
	var cost Cost
	// 4 blocks x 4 pages, one block kept as head/tail gap: 3 blocks + the
	// head block... fill until hasFreeSlot goes false.
	writes := 0
	for c.hasFreeSlot() {
		if _, err := c.program(int32(writes), nil, &cost, 0); err != nil {
			t.Fatalf("program %d: %v", writes, err)
		}
		writes++
		if writes > 64 {
			t.Fatal("ring never filled")
		}
	}
	// All four blocks absorb; the ring only refuses to *advance* into the
	// tail, which it would have to do for a 17th page.
	if writes != 4*4 {
		t.Fatalf("absorbed %d pages before filling, want 16 (all 4 blocks)", writes)
	}
	if !c.content() {
		t.Fatal("full ring reports no content")
	}
}

func TestCacheDrainFIFOAndRecycle(t *testing.T) {
	c := newTestCache(t, 4, 100_000)
	var cost Cost
	for i := 0; i < 12; i++ {
		if _, err := c.program(int32(i), nil, &cost, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Drain returns live pages in write (FIFO) order. Fully scanned tail
	// blocks are erased lazily on the *next* drain call (the last live page
	// must reach the main pool before its only flash copy is destroyed), so
	// a ninth call is needed for the second block's erase to fire.
	var drained []int32
	for i := 0; i < 9; i++ {
		lp, _, _, err := c.drainOne(&cost)
		if err != nil {
			t.Fatal(err)
		}
		if lp >= 0 {
			drained = append(drained, lp)
		}
	}
	for i, lp := range drained {
		if lp != int32(i) {
			t.Fatalf("drain order broken: position %d = lp %d", i, lp)
		}
	}
	// Two blocks scanned -> erased -> slots free again.
	if !c.hasFreeSlot() {
		t.Fatal("drained ring has no free slot")
	}
	if c.chip.Stats().Erases != 2 {
		t.Fatalf("erases = %d, want 2", c.chip.Stats().Erases)
	}
}

func TestCacheDrainSkipsDeadPages(t *testing.T) {
	c := newTestCache(t, 4, 100_000)
	var cost Cost
	locs := make([]loc, 8)
	for i := 0; i < 8; i++ {
		l, err := c.program(int32(i), nil, &cost, 0)
		if err != nil {
			t.Fatal(err)
		}
		locs[i] = l
	}
	// Kill the first four.
	for i := 0; i < 4; i++ {
		c.invalidate(locs[i])
	}
	live := 0
	for i := 0; i < 8; i++ {
		lp, _, _, err := c.drainOne(&cost)
		if err != nil {
			t.Fatal(err)
		}
		if lp >= 0 {
			live++
			if lp < 4 {
				t.Fatalf("dead page %d drained as live", lp)
			}
		}
	}
	if live != 4 {
		t.Fatalf("drained %d live pages, want 4", live)
	}
}

func TestCacheInvalidateIdempotent(t *testing.T) {
	c := newTestCache(t, 4, 100_000)
	var cost Cost
	l, err := c.program(7, nil, &cost, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.validPages() != 1 {
		t.Fatalf("validPages = %d", c.validPages())
	}
	c.invalidate(l)
	c.invalidate(l)
	if c.validPages() != 0 {
		t.Fatalf("validPages after double invalidate = %d", c.validPages())
	}
}

func TestCacheBadBlockLeavesRing(t *testing.T) {
	// Worn-out cache blocks are retired out of the ring; the cache keeps
	// operating with fewer blocks and eventually reports dead.
	c := newTestCache(t, 4, 8) // rated 8: dies fast
	var cost Cost
	i := int32(0)
	for round := 0; round < 4000 && c.alive(); round++ {
		for c.hasFreeSlot() {
			if _, err := c.program(i, nil, &cost, 0); err != nil {
				break
			}
			i++
		}
		for n := 0; n < 4; n++ {
			if _, _, _, err := c.drainOne(&cost); err != nil {
				t.Fatal(err)
			}
		}
	}
	if c.alive() {
		t.Fatal("cache survived far past rated endurance")
	}
	if c.hasFreeSlot() {
		t.Fatal("dead cache reports free slots")
	}
}

func TestCacheUtilisation(t *testing.T) {
	c := newTestCache(t, 4, 100_000)
	if c.utilisation() != 0 {
		t.Fatalf("fresh utilisation = %v", c.utilisation())
	}
	var cost Cost
	for i := 0; i < 6; i++ {
		if _, err := c.program(int32(i), nil, &cost, 0); err != nil {
			t.Fatal(err)
		}
	}
	u := c.utilisation()
	if u <= 0 || u > 1 {
		t.Fatalf("utilisation = %v", u)
	}
}

// validPages returns the number of live pages held in the cache.
func (c *cachePool) validPages() int64 {
	var n int64
	for _, v := range c.valid {
		n += int64(v)
	}
	return n
}
