package fleetd

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
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
	r, err := openCell(hostio.OS{}, path)
	if err != nil {
		t.Fatalf("openCell: %v", err)
	}
	defer r.Close()

	var he enc
	he.fileHeader(r.Header)
	hd := dec{b: he.b}
	if got := hd.fileHeader(); got != r.Header || hd.done() != nil {
		t.Errorf("file header round-trip: got %+v, want %+v", got, r.Header)
	}

	devices := 0
	for {
		typ, payload, err := r.frame()
		if err != nil {
			t.Fatalf("frame: %v", err)
		}
		var re enc
		switch typ {
		case frameDevice:
			devices++
			d := dec{b: payload}
			st := d.deviceState()
			if err := d.done(); err != nil {
				t.Fatalf("device decode: %v", err)
			}
			re.deviceState(st)
		case frameFooter:
			d := dec{b: payload}
			ft := d.footer()
			if err := d.done(); err != nil {
				t.Fatalf("footer decode: %v", err)
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
		r, err := openCell(hostio.OS{}, path)
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
	r, err := openCell(hostio.OS{}, path)
	if err != nil {
		t.Fatalf("openCell: %v", err)
	}
	want := r.Header
	r.Close()
	want.Seed++
	if _, err := loadFooter(hostio.OS{}, path, want); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("foreign cell loaded with error %v, want ErrCheckpointCorrupt", err)
	}
}

// TestPageSpanCodec pins the page encoding byte for byte: an all-zero
// page costs its flag, any other page costs flag + offset + length + the
// bytes from its first to its last non-zero one, and every shape
// round-trips. The decoder takes the canonical span only — a decoded cell
// must re-encode to itself — so each other spelling is a corrupt frame.
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
		var e enc
		e.page(tc.data)
		if len(e.b) != tc.want {
			t.Errorf("%s: encoded %d bytes, want %d", tc.name, len(e.b), tc.want)
		}
		d := dec{b: e.b}
		got := d.page(pageSize)
		if err := d.done(); err != nil {
			t.Errorf("%s: decode: %v", tc.name, err)
			continue
		}
		if !bytes.Equal(got, tc.data) {
			t.Errorf("%s: round trip changed the page", tc.name)
		}
		var re enc
		re.page(got)
		if !bytes.Equal(re.b, e.b) {
			t.Errorf("%s: re-encode differs", tc.name)
		}
	}

	span := func(off, lenMinus1 uint16, body ...byte) []byte {
		var e enc
		e.bool(false)
		e.u16(off)
		e.u16(lenMinus1)
		e.raw(body)
		return e.b
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
		d := dec{b: tc.raw}
		if p := d.page(pageSize); p != nil {
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
	for n := 0; n <= 35; n++ {
		p := make([]byte, n)
		if lo, hi := nonZeroSpan(p); lo != hi {
			t.Errorf("len %d, all zero: span [%d,%d)", n, lo, hi)
		}
		for first := 0; first < n; first++ {
			for last := first; last < n; last++ {
				p[first], p[last] = 1, 0x80
				if lo, hi := nonZeroSpan(p); lo != first || hi != last+1 {
					t.Errorf("len %d, non-zero at %d and %d: span [%d,%d)", n, first, last, lo, hi)
				}
				p[first], p[last] = 0, 0
			}
		}
	}
}

// TestCellBytesPinned is the tier-1 guard on checkpoint volume: the exact
// size of one cell of a fixed-seed campaign, and a floor on what span
// encoding saves over writing every non-zero page whole. A codec or
// file-system change that grows the cell fails here, not only in a traced
// bench run (hostio.ckpt_kib_per_device_day).
func TestCellBytesPinned(t *testing.T) {
	const golden = 120747 // bytes in cell (shard 0, epoch 1) of realCell's campaign
	path := realCell(t)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	size := fi.Size()
	if size != golden {
		t.Errorf("cell is %d bytes, golden %d", size, golden)
	}
	r, err := openCell(hostio.OS{}, path)
	if err != nil {
		t.Fatalf("openCell: %v", err)
	}
	defer r.Close()
	raw := size
	_, err = r.scan(func(st *deviceState) error {
		for _, chip := range []*nand.ChipState{st.Main, st.Cache} {
			if chip == nil {
				continue
			}
			for i := range chip.Blocks {
				for _, data := range chip.Blocks[i].Data {
					if lo, hi := nonZeroSpan(data); lo != hi {
						raw += int64(len(data) - (4 + hi - lo))
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	t.Logf("cell %d bytes, %d with raw pages", size, raw)
	if size*3 > raw {
		t.Errorf("cell is %d bytes, more than a third of the %d it costs with raw pages", size, raw)
	}
}
