package nand

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// zeroExtend returns p followed by zeros up to size bytes: the page a
// stored payload reads as.
func zeroExtend(p []byte, size int) []byte {
	return append(bytes.Clone(p), make([]byte, size-len(p))...)
}

// tailPayload returns a size-byte page whose last z bytes are zero and
// whose byte before them is not: random bytes, a quarter of them zero.
// For odd z the slice stops halfway into the zero run, a payload shorter
// than a page that the chip zero-extends.
func tailPayload(rng *rand.Rand, size, z int) []byte {
	p := make([]byte, size)
	n := size - z
	for i := range n {
		if rng.Intn(4) != 0 {
			p[i] = byte(1 + rng.Intn(255))
		}
	}
	if n > 0 {
		p[n-1] = 0x80 | byte(n)
	}
	if z%2 == 1 {
		return p[:n+z/2]
	}
	return p
}

// TestStoredPayloadForm runs a payload with a trailing-zero run of every
// length, 0 through PageSize (so all-zero, one byte, the 64- and 512-byte
// class edges and full pages among them), through four paths:
//   - program, then read: the read is the stored form, non-nil, at most
//     PageSize long and ending in a non-zero byte, and it reads as the
//     payload zero-extended;
//   - ExportState into ImportState on another chip;
//   - a relocation-style re-program of the lent read into another block,
//     as GC and the cache drain do;
//   - View, which lends the same slices.
//
// The codec round trip is fleetd's TestChipPayloadsThroughCodec.
func TestStoredPayloadForm(t *testing.T) {
	geo := Geometry{Dies: 1, PlanesPerDie: 1, BlocksPerPlane: 4, PagesPerBlock: 64, PageSize: 4096}
	chip := func() *Chip {
		c, err := New(Config{Geometry: geo, Cell: SLC, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	src, dst := chip(), chip()
	ps, ppb := geo.PageSize, geo.PagesPerBlock
	rng := rand.New(rand.NewSource(1))
	// read returns page a of c as stored, failing unless it is a stored
	// form that reads as want.
	read := func(what string, c *Chip, a PageAddr, want []byte) []byte {
		t.Helper()
		got, _, err := c.ReadPage(a)
		if err != nil {
			t.Fatalf("%s: read %v: %v", what, a, err)
		}
		switch {
		case got == nil:
			t.Errorf("%s: %v reads nil", what, a)
		case len(got) > ps:
			t.Errorf("%s: %v stores %d bytes", what, a, len(got))
		case len(got) > 0 && got[len(got)-1] == 0:
			t.Errorf("%s: %v stores %d bytes ending in zero", what, a, len(got))
		case !bytes.Equal(zeroExtend(got, ps), want):
			t.Errorf("%s: %v does not read as its payload", what, a)
		}
		return got
	}
	var view ChipState
	for z0 := 0; z0 <= ps; z0 += ppb {
		var want [][]byte
		for pg := 0; pg < ppb && z0+pg <= ps; pg++ {
			z := z0 + pg
			p := tailPayload(rng, ps, z)
			want = append(want, zeroExtend(p, ps))
			if _, err := src.ProgramPageOOB(PageAddr{0, pg}, p, OOB{LP: -1}); err != nil {
				t.Fatal(err)
			}
			if got := read("program", src, PageAddr{0, pg}, want[pg]); len(got) != ps-z {
				t.Errorf("program: trailing run %d stored as %d bytes, want %d", z, len(got), ps-z)
			}
		}
		if err := dst.ImportState(src.ExportState()); err != nil {
			t.Fatal(err)
		}
		src.View(&view)
		for pg := range want {
			read("import", dst, PageAddr{0, pg}, want[pg])
			lent := read("lent", src, PageAddr{0, pg}, want[pg])
			if _, err := src.ProgramPageOOB(PageAddr{1, pg}, lent, OOB{LP: -1}); err != nil {
				t.Fatal(err)
			}
			read("relocated", src, PageAddr{1, pg}, want[pg])
			read("lent after relocation", src, PageAddr{0, pg}, want[pg])
			if v := view.Blocks[0].Data[pg]; v == nil || !bytes.Equal(zeroExtend(v, ps), want[pg]) {
				t.Errorf("view: page %d does not read as its payload", pg)
			}
		}
		for b := range 2 {
			if _, err := src.EraseBlock(b); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestImportTrimsPayloads: an imported payload may run past its last
// non-zero byte, or be shorter than a page; the chip keeps the stored
// form of it, and refuses one longer than a page.
func TestImportTrimsPayloads(t *testing.T) {
	c := newTestChip(t, nil)
	st := c.ExportState()
	st.Blocks[0].NextPage = 3
	st.Blocks[0].Data = [][]byte{make([]byte, 4096), append(filled(7)[:100], make([]byte, 50)...), {9}}
	if err := c.ImportState(st); err != nil {
		t.Fatal(err)
	}
	for pg, want := range []int{0, 100, 1} {
		got, _, err := c.ReadPage(PageAddr{0, pg})
		if err != nil || got == nil || len(got) != want {
			t.Errorf("page %d: %d bytes (err %v), want %d", pg, len(got), err, want)
		}
	}
	st.Blocks[0].Data[2] = make([]byte, 4097)
	if err := c.ImportState(st); err == nil {
		t.Error("a payload longer than a page imported")
	}
}

// BenchmarkProgramPayload is the cost of one payload program, whose copy
// the stored form shortens, on a 64 MiB chip cycled block by block, so
// that the buffers an erase recycles were last written a whole chip ago
// and are cold. Each case is a whole page whose content ends where its
// name says: an f2fs node block uses about 300 bytes. bench's
// nand.program_ns programs nil payloads and does not see this.
func BenchmarkProgramPayload(b *testing.B) {
	geo := Geometry{Dies: 1, PlanesPerDie: 1, BlocksPerPlane: 256, PagesPerBlock: 64, PageSize: 4096}
	for _, tc := range []struct {
		name string
		end  int
	}{{"node300", 300}, {"half2k", 2048}, {"full", 4096}, {"zero", 0}} {
		b.Run(tc.name, func(b *testing.B) {
			c, err := New(Config{Geometry: geo, Cell: SLC, RatedPE: 1 << 30, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			page := make([]byte, geo.PageSize)
			rng := rand.New(rand.NewSource(1))
			for i := range tc.end {
				page[i] = byte(1 + rng.Intn(255))
			}
			blocks := geo.Blocks()
			program := func(i int) {
				blk, pg := i/geo.PagesPerBlock%blocks, i%geo.PagesPerBlock
				if pg == 0 {
					if _, err := c.EraseBlock(blk); err != nil && !errors.Is(err, ErrEraseFail) {
						b.Fatal(err)
					}
				}
				if _, err := c.ProgramPageOOB(PageAddr{blk, pg}, page, OOB{LP: -1}); err != nil && !errors.Is(err, ErrProgramFail) {
					b.Fatal(err)
				}
			}
			n := blocks * geo.PagesPerBlock
			for i := range n { // fill the chip, so every later program recycles
				program(i)
			}
			b.SetBytes(int64(geo.PageSize))
			b.ResetTimer()
			for i := range b.N {
				program(n + i)
			}
		})
	}
}

// TestPayloadClassesAnyPageSize: a page size that is not a power of two,
// or past the largest doubling class, still maps every payload length to
// a class whose buffers fit it, and an erase puts each buffer back where
// the next program of that length finds it.
func TestPayloadClassesAnyPageSize(t *testing.T) {
	for _, ps := range []int{512, 1536, 4096, 1 << 17} {
		c, err := New(Config{Geometry: Geometry{Dies: 1, PlanesPerDie: 1, BlocksPerPlane: 1, PagesPerBlock: 8, PageSize: ps}, Cell: SLC, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		var pages [][]byte
		for _, n := range []int{1, 64, 65, 300, ps/2 + 1, ps - 1, ps} {
			p := make([]byte, ps)
			p[n-1] = 7
			pages = append(pages, p)
		}
		program := func() {
			for pg, p := range pages {
				if _, err := c.ProgramPageOOB(PageAddr{0, pg}, p, OOB{LP: -1}); err != nil {
					t.Fatal(err)
				}
			}
		}
		erase := func() {
			if _, err := c.EraseBlock(0); err != nil {
				t.Fatal(err)
			}
		}
		for range 2 {
			program()
			for pg, p := range pages {
				if got, _, err := c.ReadPage(PageAddr{0, pg}); err != nil || !bytes.Equal(zeroExtend(got, ps), p) {
					t.Fatalf("page size %d: page %d reads differently (err %v)", ps, pg, err)
				}
			}
			erase()
		}
		if n := testing.AllocsPerRun(3, func() { program(); erase() }); n != 0 {
			t.Errorf("page size %d: a warmed program-erase cycle allocates %v times", ps, n)
		}
	}
}
