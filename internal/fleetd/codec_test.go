package fleetd

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"flashwear/internal/hostio"
	"flashwear/internal/nand"
)

// realCell runs a tiny disk-backed campaign and returns the path of one
// completed cell — real device states, not synthetic fixtures, so the
// codec tests cover everything a production checkpoint contains.
func realCell(t *testing.T) string {
	t.Helper()
	spec := tinySpec()
	spec.Devices = 2
	spec.Days = 2
	spec.CheckpointEvery = 1
	dir := t.TempDir()
	runToEnd(t, dir, spec)
	return cellPath(filepath.Join(dir, "c000001"), 0, 1)
}

// TestCodecReencodeIdentity pins the property resume correctness leans
// on: decoding a checkpoint and re-encoding every frame reproduces the
// original payload bytes exactly — no map-order, float-formatting, or
// history dependence anywhere in the codec.
func TestCodecReencodeIdentity(t *testing.T) {
	path := realCell(t)
	r, err := openCell(hostio.OS{}, path, newCellBufs())
	if err != nil {
		t.Fatalf("openCell: %v", err)
	}
	defer r.Close()

	var he codec
	he.fileHeader(&r.Header)
	hd := codec{b: he.b, dec: true}
	var got fileHeader
	if hd.fileHeader(&got); got != r.Header || hd.done() != nil {
		t.Errorf("file header round-trip: got %+v, want %+v", got, r.Header)
	}

	devices := 0
	for {
		typ, payload, err := r.frame()
		if err != nil {
			t.Fatalf("frame: %v", err)
		}
		var re codec
		switch typ {
		case frameDevice:
			devices++
			st, err := decodeDevice(payload, new(arena))
			if err != nil {
				t.Fatalf("device decode: %v", err)
			}
			re.deviceState(st)
		case frameFooter:
			ft := new(epochFooter)
			d := codec{b: payload, dec: true}
			if d.footer(ft); d.done() != nil {
				t.Fatalf("footer decode: %v", d.done())
			}
			re.footer(ft)
			if !bytes.Equal(re.b, payload) {
				t.Fatal("footer re-encode differs from original payload")
			}
			if devices == 0 {
				t.Fatal("cell contained no device frames")
			}
			return
		default:
			t.Fatalf("unexpected frame type %d", typ)
		}
		if !bytes.Equal(re.b, payload) {
			t.Fatal("device re-encode differs from original payload")
		}
	}
}

// TestCheckpointCorruptionTable is the satellite's corruption matrix:
// each damage pattern must map to its designated sentinel, and nothing
// may decode.
func TestCheckpointCorruptionTable(t *testing.T) {
	pristine, err := os.ReadFile(realCell(t))
	if err != nil {
		t.Fatalf("read cell: %v", err)
	}
	probe := func(t *testing.T, raw []byte) error {
		t.Helper()
		path := filepath.Join(t.TempDir(), "cell.ckpt")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatalf("write damaged cell: %v", err)
		}
		r, err := openCell(hostio.OS{}, path, newCellBufs())
		if err != nil {
			return err
		}
		defer r.Close()
		_, err = r.scan(nil)
		return err
	}
	for _, tc := range []struct {
		name   string
		damage func([]byte) []byte
		want   error
	}{
		{"pristine", func(b []byte) []byte { return b }, nil},
		{"empty file", func(b []byte) []byte { return nil }, ErrCheckpointTruncated},
		{"cut mid-frame", func(b []byte) []byte { return b[:len(b)/2] }, ErrCheckpointTruncated},
		{"missing end marker", func(b []byte) []byte { return b[:len(b)-len(endMagic)] }, ErrCheckpointTruncated},
		{"short magic", func(b []byte) []byte { return b[:4] }, ErrCheckpointTruncated},
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b }, ErrCheckpointCorrupt},
		{"version bump", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[len(fileMagic):], ckptVersion+1)
			return b
		}, ErrCheckpointVersion},
		{"version 1 cell", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[len(fileMagic):], 1)
			return b
		}, ErrCheckpointVersion},
		{"payload bit flip", func(b []byte) []byte { b[len(b)/2] ^= 0x01; return b }, ErrCheckpointCorrupt},
		{"bad end marker", func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b }, ErrCheckpointCorrupt},
		{"trailing garbage", func(b []byte) []byte { return append(b, 0) }, ErrCheckpointCorrupt},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			err := probe(t, tc.damage(append([]byte(nil), pristine...)))
			if tc.want == nil {
				if err != nil {
					t.Fatalf("pristine cell failed to load: %v", err)
				}
				return
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("got error %v, want %v", err, tc.want)
			}
			// The three sentinels are mutually exclusive by construction.
			for _, other := range []error{ErrCheckpointVersion, ErrCheckpointTruncated, ErrCheckpointCorrupt} {
				if other != tc.want && errors.Is(err, other) {
					t.Errorf("error %v also matches %v", err, other)
				}
			}
		})
	}
}

// TestCellIdentityCheck: a structurally valid cell belonging to a
// different campaign must be refused, not resumed from.
func TestCellIdentityCheck(t *testing.T) {
	path := realCell(t)
	r, err := openCell(hostio.OS{}, path, newCellBufs())
	if err != nil {
		t.Fatalf("openCell: %v", err)
	}
	want := r.Header
	r.Close()
	want.Seed++
	if _, err := loadFooter(hostio.OS{}, path, want, newCellBufs()); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("foreign cell loaded with error %v, want ErrCheckpointCorrupt", err)
	}
}

// TestPageSpanCodec pins the page encoding byte for byte: an all-zero
// page costs its flag, any other page costs flag + offset + length + the
// bytes from its first to its last non-zero one, and every shape
// round-trips to a chip's stored form (the page up to its last non-zero
// byte, non-nil). The decoder takes the canonical span only — a decoded
// cell must re-encode to itself — so each other spelling is a corrupt
// frame.
func TestPageSpanCodec(t *testing.T) {
	const pageSize = 64
	page := func(set ...int) []byte {
		p := make([]byte, pageSize)
		for _, i := range set {
			p[i] = byte(i) | 0x80
		}
		return p
	}
	full := bytes.Repeat([]byte{0xA5}, pageSize)
	for _, tc := range []struct {
		name string
		data []byte
		want int // encoded bytes
	}{
		{"all zero", page(), 1},
		{"one byte at offset 0", page(0), 1 + 4 + 1},
		{"one byte at the last offset", page(pageSize - 1), 1 + 4 + 1},
		{"interior run with a hole", page(10, 11, 19), 1 + 4 + 10},
		{"run across the word scan's seams", page(7, 8, 56), 1 + 4 + 50},
		{"fully non-zero", full, 1 + 4 + pageSize},
	} {
		var e codec
		e.page(&tc.data, pageSize)
		if len(e.b) != tc.want {
			t.Errorf("%s: encoded %d bytes, want %d", tc.name, len(e.b), tc.want)
		}
		d := codec{b: e.b, dec: true, a: new(arena)}
		var got []byte
		d.page(&got, pageSize)
		if err := d.done(); err != nil {
			t.Errorf("%s: decode: %v", tc.name, err)
			continue
		}
		if got == nil || len(got) > 0 && got[len(got)-1] == 0 {
			t.Errorf("%s: decoded %v, not a stored form", tc.name, got)
		}
		if ext := append(bytes.Clone(got), make([]byte, pageSize-len(got))...); !bytes.Equal(ext, tc.data) {
			t.Errorf("%s: round trip changed the page", tc.name)
		}
		var re codec
		re.page(&got, pageSize)
		if !bytes.Equal(re.b, e.b) {
			t.Errorf("%s: re-encode differs", tc.name)
		}
	}

	span := func(off, lenMinus1 uint16, body ...byte) []byte {
		var e codec
		e.bool(new(bool))
		e.u16(&off)
		e.u16(&lenMinus1)
		return append(e.b, body...)
	}
	for _, tc := range []struct {
		name string
		raw  []byte
	}{
		{"leading zero in span", span(4, 2, 0, 7, 7)},
		{"trailing zero in span", span(4, 2, 7, 7, 0)},
		{"span runs past the page", span(pageSize-2, 2, 7, 7, 7)},
		{"span longer than the frame", span(4, 9, 7, 7, 7)},
		{"span header cut short", span(4, 0)[:3]},
		{"flag neither 0 nor 1", []byte{2}},
	} {
		d := codec{b: tc.raw, dec: true, a: new(arena)}
		var p []byte
		if d.page(&p, pageSize); p != nil {
			t.Errorf("%s: decoded a page", tc.name)
		}
		if err := d.done(); !errors.Is(err, ErrCheckpointCorrupt) {
			t.Errorf("%s: got %v, want ErrCheckpointCorrupt", tc.name, err)
		}
	}
}

// TestNonZeroSpanEveryEndpoint checks the word-wise scan against the
// definition for every (first, last) pair in pages short enough to
// enumerate, including lengths that are not a multiple of the word.
func TestNonZeroSpanEveryEndpoint(t *testing.T) {
	check := func(p []byte, first, last int) {
		t.Helper()
		p[first], p[last] = 1, 0x80
		if lo, hi := nonZeroSpan(p); lo != first || hi != last+1 {
			t.Errorf("len %d, non-zero at %d and %d: span [%d,%d)", len(p), first, last, lo, hi)
		}
		p[first], p[last] = 0, 0
	}
	// Every endpoint pair of every length up to two and a half 64-byte
	// steps.
	for n := 0; n <= 160; n++ {
		p := make([]byte, n)
		if lo, hi := nonZeroSpan(p); lo != hi {
			t.Errorf("len %d, all zero: span [%d,%d)", n, lo, hi)
		}
		for first := 0; first < n; first++ {
			for last := first; last < n; last++ {
				check(p, first, last)
			}
		}
	}
	// Up to a whole page: every pair of endpoints at, beside and between
	// the word and 64-byte boundaries.
	for _, n := range []int{1000, 4095, 4096} {
		p := make([]byte, n)
		if lo, hi := nonZeroSpan(p); lo != hi {
			t.Errorf("len %d, all zero: span [%d,%d)", n, lo, hi)
		}
		var ends []int
		for b := 0; b <= n; b += 64 {
			for _, d := range []int{-9, -8, -1, 0, 1, 7, 8, 31} {
				if e := b + d; e >= 0 && e < n {
					ends = append(ends, e)
				}
			}
		}
		for _, first := range ends {
			for _, last := range ends {
				if first <= last {
					check(p, first, last)
				}
			}
		}
	}
}

// TestCellBytesPinned is the tier-1 guard on checkpoint volume and layout:
// the exact size and payload digest of one cell of a fixed-seed campaign,
// and a floor on what span encoding saves over writing every non-zero page
// whole. A codec or file-system change that grows the cell fails here, not
// only in a traced bench run (hostio.ckpt_kib_per_device_day), and one that
// moves a byte of a frame fails on the digest.
func TestCellBytesPinned(t *testing.T) {
	// The size and the digest of cell (shard 0, epoch 1) of realCell's
	// campaign.
	const (
		golden = 120747
		digest = "ef66ce6a95b04f7b9ce34729a12c43e4c07c6e09c2d503761e5c5b4ff2c07792"
	)
	path := realCell(t)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	size := int64(len(raw))
	if size != golden {
		t.Errorf("cell is %d bytes, golden %d", size, golden)
	}
	if got := cellDigest(t, raw); got != digest {
		t.Errorf("cell digest %s, golden %s", got, digest)
	}
	r, err := openCell(hostio.OS{}, path, newCellBufs())
	if err != nil {
		t.Fatalf("openCell: %v", err)
	}
	defer r.Close()
	whole := size
	_, err = r.scan(func(st *deviceState) error {
		for _, chip := range []*nand.ChipState{st.Main, st.Cache} {
			if chip == nil {
				continue
			}
			for i := range chip.Blocks {
				for _, data := range chip.Blocks[i].Data {
					if lo, hi := nonZeroSpan(data); lo != hi {
						whole += int64(chip.Geometry.PageSize - (4 + hi - lo))
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	t.Logf("cell %d bytes, %d with raw pages", size, whole)
	if size*3 > whole {
		t.Errorf("cell is %d bytes, more than a third of the %d it costs with raw pages", size, whole)
	}
}

// cellDigest is the hex sha256 of a cell's frame payloads: the header's,
// then the device frames' sorted bytewise, then the footer's. Workers
// write device frames in the order they finish, so the digest sorts them;
// every byte of every payload still counts, so two fields swapped in both
// encoder and decoder move it where the cell's size would not.
func cellDigest(t *testing.T, raw []byte) string {
	t.Helper()
	off := len(fileMagic) + 4
	var header, footer []byte
	var devices [][]byte
	for footer == nil {
		if off+5 > len(raw) {
			t.Fatal("cell ends before its footer")
		}
		typ, n := raw[off], int(binary.LittleEndian.Uint32(raw[off+1:]))
		payload := raw[off+5 : off+5+n]
		off += 5 + n + 4
		switch typ {
		case frameHeader:
			header = payload
		case frameDevice:
			devices = append(devices, payload)
		case frameFooter:
			footer = payload
		}
	}
	slices.SortFunc(devices, bytes.Compare)
	h := sha256.New()
	h.Write(header)
	for _, d := range devices {
		h.Write(d)
	}
	h.Write(footer)
	return hex.EncodeToString(h.Sum(nil))
}

// TestChipPayloadsThroughCodec runs a payload with a trailing-zero run of
// every length, 0 through PageSize, from a chip's View through the chip
// codec and into another chip's ImportState: each decodes to the stored
// form the source holds, byte for byte, and re-encodes to the same frame.
// nand's TestStoredPayloadForm takes the same payloads through the chip's
// own paths.
func TestChipPayloadsThroughCodec(t *testing.T) {
	geo := nand.Geometry{Dies: 1, PlanesPerDie: 1, BlocksPerPlane: 2, PagesPerBlock: 64, PageSize: 4096}
	chip := func() *nand.Chip {
		c, err := nand.New(nand.Config{Geometry: geo, Cell: nand.SLC, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	src, dst := chip(), chip()
	ps, ppb := geo.PageSize, geo.PagesPerBlock
	var view nand.ChipState
	a := new(arena)
	for z0 := 0; z0 <= ps; z0 += ppb {
		for pg := 0; pg < ppb && z0+pg <= ps; pg++ {
			n := ps - (z0 + pg)
			p := make([]byte, ps)
			for i := range n {
				p[i] = byte(i*7 + pg)
			}
			if n > 0 {
				p[n-1] = 0x80
			}
			if _, err := src.ProgramPageOOB(nand.PageAddr{Block: 0, Page: pg}, p, nand.OOB{LP: -1}); err != nil {
				t.Fatal(err)
			}
		}
		src.View(&view)
		var e codec
		e.chipState(&view)
		a.reset()
		d := codec{b: e.b, dec: true, a: a}
		var got nand.ChipState
		d.chipState(&got)
		if err := d.done(); err != nil {
			t.Fatalf("decode: %v", err)
		}
		var re codec
		re.chipState(&got)
		if !bytes.Equal(re.b, e.b) {
			t.Errorf("run %d: re-encode differs", z0)
		}
		if err := dst.ImportState(&got); err != nil {
			t.Fatal(err)
		}
		for pg, want := range view.Blocks[0].Data {
			data, _, err := dst.ReadPage(nand.PageAddr{Block: 0, Page: pg})
			if err != nil || data == nil || !bytes.Equal(data, want) {
				t.Errorf("trailing run %d: imported %d bytes (err %v), source stores %d", z0+pg, len(data), err, len(want))
			}
		}
		if _, err := src.EraseBlock(0); err != nil {
			t.Fatal(err)
		}
	}
}
