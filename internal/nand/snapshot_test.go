package nand

import (
	"bytes"
	"sync"
	"testing"
)

// filled returns a page of one repeated byte.
func filled(b byte) []byte { return bytes.Repeat([]byte{b}, testGeometry().PageSize) }

// mustProgram programs the block's next pages with the given fill bytes.
func mustProgram(t *testing.T, c *Chip, block int, fills ...byte) {
	t.Helper()
	for _, f := range fills {
		buf := filled(f)
		if _, err := c.ProgramPage(PageAddr{block, c.ProgrammedPages(block)}, buf); err != nil {
			t.Errorf("program block %d: %v", block, err)
			return
		}
		buf[0] ^= 0xFF // the chip kept a private copy, not the caller's buffer
	}
}

func mustErase(t *testing.T, c *Chip, block int) {
	t.Helper()
	if _, err := c.EraseBlock(block); err != nil {
		t.Errorf("erase block %d: %v", block, err)
	}
}

// pageBytes deep-copies every payload of a state, keyed by (block, page).
func pageBytes(st *ChipState) map[PageAddr][]byte {
	out := map[PageAddr][]byte{}
	for b := range st.Blocks {
		for pg, d := range st.Blocks[b].Data {
			out[PageAddr{b, pg}] = bytes.Clone(d)
		}
	}
	return out
}

// sameState fails unless st holds exactly the payloads in want.
func sameState(t *testing.T, what string, st *ChipState, want map[PageAddr][]byte) {
	t.Helper()
	got := pageBytes(st)
	if len(got) != len(want) {
		t.Errorf("%s: %d payloads, want %d", what, len(got), len(want))
	}
	for a, w := range want {
		if !bytes.Equal(got[a], w) {
			t.Errorf("%s: page %v changed", what, a)
		}
	}
}

// matchesChip fails unless every page the chip has programmed reads back
// as the export says, and the export has nothing else.
func matchesChip(t *testing.T, what string, c *Chip, st *ChipState) {
	t.Helper()
	for b := range st.Blocks {
		bs := &st.Blocks[b]
		if bs.NextPage != c.ProgrammedPages(b) || len(bs.Data) != bs.NextPage {
			t.Errorf("%s: block %d exports %d pages and %d payloads, chip has %d", what, b, bs.NextPage, len(bs.Data), c.ProgrammedPages(b))
		}
		for pg, d := range bs.Data {
			got, _, err := c.ReadPage(PageAddr{b, pg})
			if err != nil || !bytes.Equal(got, d) {
				t.Errorf("%s: page %d/%d reads differently from its export (err %v)", what, b, pg, err)
			}
		}
	}
}

// TestSnapshotSharesWriteOncePages pins what lets ExportState and
// ImportState share page payloads instead of copying them: nothing the
// source chip does after an export, and nothing any chip booted from a
// state does, ever shows through a shared slice. The two importers run
// concurrently while a third goroutine reads the state, so under -race
// (make race) a write through a shared slice is a reported data race, not
// only a wrong byte.
func TestSnapshotSharesWriteOncePages(t *testing.T) {
	src := newTestChip(t, nil)
	mustProgram(t, src, 0, 0x10, 0x11, 0x12)
	mustProgram(t, src, 1, 0x20, 0x21)
	st := src.ExportState()
	frozen := pageBytes(st)
	if len(frozen) != 5 {
		t.Fatalf("export holds %d payloads, want 5", len(frozen))
	}

	// The source keeps running: more pages, an erase, a rewrite, and a
	// reader scribbling on what ReadPage handed out.
	mustProgram(t, src, 0, 0x13)
	mustErase(t, src, 1)
	mustProgram(t, src, 1, 0x99, 0x98, 0x97)
	if got, _, err := src.ReadPage(PageAddr{0, 0}); err != nil {
		t.Fatalf("ReadPage: %v", err)
	} else {
		clear(got)
	}
	sameState(t, "export after the source moved on", st, frozen)
	matchesChip(t, "source", src, src.ExportState())

	a, b := newTestChip(t, nil), newTestChip(t, nil)
	if err := a.ImportState(st); err != nil {
		t.Fatalf("ImportState a: %v", err)
	}
	if err := b.ImportState(st); err != nil {
		t.Fatalf("ImportState b: %v", err)
	}
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		mustErase(t, a, 0)
		mustProgram(t, a, 0, 0xAA)
		mustProgram(t, a, 1, 0xAB)
	}()
	go func() {
		defer wg.Done()
		mustProgram(t, b, 0, 0xBB)
		mustErase(t, b, 1)
	}()
	go func() {
		defer wg.Done()
		sameState(t, "state while two chips run from it", st, frozen)
	}()
	wg.Wait()

	sameState(t, "state after two chips ran from it", st, frozen)
	ea, eb := a.ExportState(), b.ExportState()
	matchesChip(t, "chip a", a, ea)
	matchesChip(t, "chip b", b, eb)
	sameState(t, "chip a's export", ea, map[PageAddr][]byte{
		{0, 0}: filled(0xAA),
		{1, 0}: filled(0x20), {1, 1}: filled(0x21), {1, 2}: filled(0xAB),
	})
	sameState(t, "chip b's export", eb, map[PageAddr][]byte{
		{0, 0}: filled(0x10), {0, 1}: filled(0x11), {0, 2}: filled(0x12), {0, 3}: filled(0xBB),
	})
}
