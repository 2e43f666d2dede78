package ftl

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestGCRelocationAllocatesNothing: a host write that forces GC to relocate
// payload pages reads each page as a buffer the chip lends and programs it
// into a buffer an earlier erase freed, so it stays off the heap.
func TestGCRelocationAllocatesNothing(t *testing.T) {
	f := newTestFTL(t, nil)
	n := f.LogicalPages() / 2
	payload := page(0x3C, 4096)
	rng := rand.New(rand.NewSource(31))
	write := func() {
		if _, err := f.WritePage(rng.Intn(n), payload, 4096); err != nil {
			t.Fatal(err)
		}
	}
	for range 6 * f.LogicalPages() {
		write()
	}
	// One run is the writes up to and including one that relocates.
	relocating := func() {
		for before := f.GCCopies(); f.GCCopies() == before; {
			write()
		}
	}
	if avg := testing.AllocsPerRun(1000, relocating); avg != 0 {
		t.Errorf("payload writes up to a GC relocation allocate %g objects, want 0", avg)
	}
}

// TestLentPayloadSurvivesOtherBlocks: ReadPage lends the chip's buffer,
// which stays valid until its own block is erased. Holding one across GC
// relocation, cache drains and erases of other blocks must leave it intact:
// those recycle only their own buffers.
func TestLentPayloadSurvivesOtherBlocks(t *testing.T) {
	f := hybridFTL(t, 0.2, 10)
	f.main.noWL = true // static WL would move the cold block itself
	ppb := f.main.ppb
	// One main-pool block of cold pages, written past the cache and never
	// rewritten: with no garbage it is never a GC victim.
	cold := page(0xC0, 4096)
	for lp := 0; lp < ppb; lp++ {
		if _, err := f.WritePage(lp, cold, 1<<20); err != nil {
			t.Fatal(err)
		}
	}
	blk := f.l2p[0].block()
	for lp := 0; lp < ppb; lp++ {
		if l := f.l2p[lp]; l.pool() != PoolB || l.block() != blk {
			t.Fatalf("cold page %d is not in main-pool block %d", lp, blk)
		}
	}
	held, _, err := f.ReadPage(0)
	if err != nil {
		t.Fatal(err)
	}
	erases := f.MainChip().EraseCount(blk)
	gcBefore, drainsBefore := f.GCCopies(), f.Stats().DrainMigrations

	churn := page(0xEE, 4096)
	rng := rand.New(rand.NewSource(32))
	for range 20_000 {
		lp := ppb + rng.Intn(f.LogicalPages()/2-ppb)
		if _, err := f.WritePage(lp, churn, 4096); err != nil {
			t.Fatal(err)
		}
	}
	if f.GCCopies() == gcBefore || f.Stats().DrainMigrations == drainsBefore {
		t.Fatalf("churn did not relocate (GC copies %d -> %d) and drain (%d -> %d)",
			gcBefore, f.GCCopies(), drainsBefore, f.Stats().DrainMigrations)
	}
	if f.MainChip().EraseCount(blk) != erases {
		t.Fatal("the cold block was erased; the test no longer holds its premise")
	}
	if !bytes.Equal(held, cold) {
		t.Fatal("a lent payload changed while only other blocks were relocated and erased")
	}
}
