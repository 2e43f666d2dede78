package nand

import (
	"bytes"
	"errors"
	"slices"
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
			if d != nil {
				out[PageAddr{b, pg}] = bytes.Clone(d)
			}
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
// as the export says. The pages these tests program all carry payloads, so
// the export's page index is nil only for a block with none.
func matchesChip(t *testing.T, what string, c *Chip, st *ChipState) {
	t.Helper()
	for b := range st.Blocks {
		bs := &st.Blocks[b]
		if bs.NextPage != c.ProgrammedPages(b) || len(bs.Data) != bs.NextPage {
			t.Errorf("%s: block %d exports %d pages and %d payloads, chip has %d", what, b, bs.NextPage, len(bs.Data), c.ProgrammedPages(b))
		}
		for pg, d := range bs.Data {
			got, _, err := c.ReadPage(PageAddr{b, pg})
			if err != nil || d == nil || !bytes.Equal(got, d) {
				t.Errorf("%s: page %d/%d reads differently from its export (err %v)", what, b, pg, err)
			}
		}
	}
}

// freeBuffers fails unless the chip's free list holds exactly n buffers.
func freeBuffers(t *testing.T, what string, c *Chip, n int) {
	t.Helper()
	if len(c.free) != n {
		t.Errorf("%s: %d buffers on the free list, want %d", what, len(c.free), n)
	}
}

// TestSnapshotSharesWriteOncePages pins what lets ExportState and
// ImportState share page payloads instead of copying them, although an
// erase recycles a block's page buffers: nothing the source chip does
// after an export, and nothing any chip booted from a state does, ever
// shows through a shared slice, because a block whose payloads a snapshot
// holds drops them at its next erase. The two importers run concurrently
// while a third goroutine reads the state, so under -race (make race) a
// write through a shared slice is a reported data race, not only a wrong
// byte.
func TestSnapshotSharesWriteOncePages(t *testing.T) {
	src := newTestChip(t, nil)
	mustProgram(t, src, 0, 0x10, 0x11, 0x12)
	mustProgram(t, src, 1, 0x20, 0x21)
	st := src.ExportState()
	frozen := pageBytes(st)
	if len(frozen) != 5 {
		t.Fatalf("export holds %d payloads, want 5", len(frozen))
	}

	// The source keeps running: more pages into an exported block, erases
	// of both exported blocks, rewrites, and a reader scribbling on what
	// ReadPage handed out. The erases drop the exported buffers, so the
	// rewrites cannot land in them.
	mustProgram(t, src, 0, 0x13)
	mustErase(t, src, 1)
	mustErase(t, src, 0)
	freeBuffers(t, "source after erasing its exported blocks", src, 0)
	mustProgram(t, src, 1, 0x99, 0x98, 0x97)
	mustProgram(t, src, 0, 0x96, 0x95)
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
		mustErase(t, a, 0) // the state's buffers: dropped, not recycled
		freeBuffers(t, "importer a after erasing an imported block", a, 0)
		mustProgram(t, a, 0, 0xAA)
		mustProgram(t, a, 1, 0xAB)
	}()
	go func() {
		defer wg.Done()
		mustProgram(t, b, 0, 0xBB)
		mustErase(t, b, 1)
		freeBuffers(t, "importer b after erasing an imported block", b, 0)
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

// TestSnapshotMissesRecycledBuffers: a block erased before an export
// recycles its buffers, and the programs that reuse them after the export
// never show in it.
func TestSnapshotMissesRecycledBuffers(t *testing.T) {
	c := newTestChip(t, nil)
	mustProgram(t, c, 0, 0x10, 0x11)
	mustProgram(t, c, 1, 0x20, 0x21)
	mustErase(t, c, 1)
	freeBuffers(t, "after erasing an unexported block", c, 2)
	st := c.ExportState()
	frozen := pageBytes(st)
	mustProgram(t, c, 2, 0x30, 0x31)
	freeBuffers(t, "after reprogramming", c, 0)
	sameState(t, "export after its recycled buffers were reprogrammed", st, frozen)
	sameState(t, "export", st, map[PageAddr][]byte{{0, 0}: filled(0x10), {0, 1}: filled(0x11)})
	matchesChip(t, "chip", c, c.ExportState())
}

// noMeta fails unless a block of c is in the no-metadata state: every
// programmed page's ReadOOB reports false and its export's Meta is nil.
func noMeta(t *testing.T, what string, c *Chip, block int) {
	t.Helper()
	for pg := 0; pg < c.ProgrammedPages(block); pg++ {
		if m, ok := c.ReadOOB(PageAddr{block, pg}); ok || m != (OOB{LP: -1}) {
			t.Errorf("%s: page %d reads OOB %+v, %v; want none", what, pg, m, ok)
		}
	}
	if meta := c.ExportState().Blocks[block].Meta; meta != nil {
		t.Errorf("%s: exports Meta %+v, want nil", what, meta)
	}
}

// TestSnapshotKeepsNoMetadataState pins the state a block is in until a
// program since its erase stores metadata: after the erase itself, after
// programs that all failed, and after importing a block with Meta nil.
// The erase and the import reset the chip's OOB array in place, so each
// case starts from a block that held metadata before.
func TestSnapshotKeepsNoMetadataState(t *testing.T) {
	inj := &forced{op: OpProgram}
	c := newTestChip(t, func(cfg *Config) { cfg.Inject = inj })
	program := func(pg int, seq int64) error {
		_, err := c.ProgramPageOOB(PageAddr{0, pg}, filled(byte(seq)), OOB{LP: int32(pg), Seq: seq, Org: 3})
		return err
	}
	for pg := 0; pg < 3; pg++ {
		if err := program(pg, int64(pg+1)); err != nil {
			t.Fatal(err)
		}
	}
	mustErase(t, c, 0)
	noMeta(t, "erased", c, 0)

	inj.f = FaultProgram
	for pg := 0; pg < 2; pg++ {
		if err := program(pg, 9); !errors.Is(err, ErrProgramFail) {
			t.Fatalf("forced program failure returned %v", err)
		}
	}
	inj.f = FaultNone
	noMeta(t, "every program since the erase failed", c, 0)

	// The next program that succeeds gives the block metadata, and the
	// failed pages before it read as none.
	if err := program(2, 7); err != nil {
		t.Fatal(err)
	}
	want := []OOB{{LP: -1}, {LP: -1}, {LP: 2, Seq: 7, Org: 3}}
	if got := c.ExportState().Blocks[0].Meta; !slices.Equal(got, want) {
		t.Errorf("after one successful program: Meta %+v, want %+v", got, want)
	}
	if m, ok := c.ReadOOB(PageAddr{0, 2}); !ok || m != want[2] {
		t.Errorf("ReadOOB of the programmed page = %+v, %v", m, ok)
	}

	st := c.ExportState()
	st.Blocks[0].Meta = nil
	if err := c.ImportState(st); err != nil {
		t.Fatal(err)
	}
	if c.ProgrammedPages(0) != 3 {
		t.Fatalf("imported block has %d programmed pages, want 3", c.ProgrammedPages(0))
	}
	noMeta(t, "imported with Meta nil", c, 0)
}
