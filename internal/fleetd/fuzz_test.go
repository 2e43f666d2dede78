package fleetd

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"flashwear/internal/fleet"
	"flashwear/internal/hostio"
	"flashwear/internal/nand"
	"flashwear/internal/report"
	"flashwear/internal/wtrace"
)

// fuzzFS is a read-only in-memory hostio.FS: just enough surface for
// openCell/scan, so the fuzzer never touches the real disk.
type fuzzFS map[string][]byte

type fuzzFile struct {
	*bytes.Reader
	name string
}

func (f *fuzzFile) Write(p []byte) (int, error) { return 0, errors.New("fuzzFS: read-only") }
func (f *fuzzFile) Close() error                { return nil }
func (f *fuzzFile) Name() string                { return f.name }
func (f *fuzzFile) Sync() error                 { return nil }
func (f *fuzzFile) Truncate(int64) error        { return errors.New("fuzzFS: read-only") }

func (m fuzzFS) Open(name string) (hostio.File, error) {
	b, ok := m[name]
	if !ok {
		return nil, fs.ErrNotExist
	}
	return &fuzzFile{Reader: bytes.NewReader(b), name: name}, nil
}

func (m fuzzFS) Create(string) (hostio.File, error) { return nil, errors.New("fuzzFS: read-only") }
func (m fuzzFS) OpenFile(string, int, os.FileMode) (hostio.File, error) {
	return nil, errors.New("fuzzFS: read-only")
}
func (m fuzzFS) Rename(string, string) error           { return errors.New("fuzzFS: read-only") }
func (m fuzzFS) Remove(string) error                   { return errors.New("fuzzFS: read-only") }
func (m fuzzFS) MkdirAll(string, os.FileMode) error    { return errors.New("fuzzFS: read-only") }
func (m fuzzFS) ReadDir(string) ([]fs.DirEntry, error) { return nil, errors.New("fuzzFS: read-only") }
func (m fuzzFS) ReadFile(name string) ([]byte, error) {
	b, ok := m[name]
	if !ok {
		return nil, fs.ErrNotExist
	}
	return b, nil
}
func (m fuzzFS) WriteFile(string, []byte, os.FileMode) error { return errors.New("fuzzFS: read-only") }
func (m fuzzFS) Stat(string) (fs.FileInfo, error)            { return nil, errors.New("fuzzFS: read-only") }

// seedSpan is how the seed cell's one span page reads inside its device
// frame: flag 0, offset 3, length-1 2, three bytes.
var seedSpan = []byte{0, 3, 0, 2, 0, 0xA5, 0xA5, 0xA5}

// seedDevice is the seed cell's one device: two blocks, one span page and
// one zero page.
func seedDevice() *deviceState {
	geo := nand.Geometry{Dies: 1, PlanesPerDie: 1, BlocksPerPlane: 2, PagesPerBlock: 4, PageSize: 16, SpareSize: 0}
	page := make([]byte, geo.PageSize)
	copy(page[3:], seedSpan[5:])
	return &deviceState{
		Index:        1,
		DaysDone:     3,
		BytesWritten: 1 << 20,
		GCCopies:     5,
		Main: &nand.ChipState{
			Geometry: geo,
			Blocks: []nand.BlockState{
				{EraseCount: 2, NextPage: 2, Meta: []nand.OOB{{LP: 0, Seq: 1, Org: 0}, {LP: 1, Seq: 2, Org: 1}},
					Data: [][]byte{page, make([]byte, geo.PageSize)}},
				{Bad: true},
			},
		},
	}
}

// seedFooter is the seed cell's footer: three days, one live device, no
// death yet and no final aggregate.
func seedFooter() *epochFooter {
	days := 3
	ft := &epochFooter{
		Shard: 0, Epoch: 1, DayLo: 0, DayHi: days, Live: 1,
		Rows:       make([][]int64, days),
		Wear:       make([]report.Sketch, days),
		FrozenRows: make([]int64, fleet.DayCols),
		FrozenWear: report.NewSketch(wearLevels),
		Agg:        newAggregate(),
		Ledger:     wtrace.Snapshot{PageSize: 16, Rows: []wtrace.Row{{Origin: "os", HostPages: 4}}},
	}
	for i := range ft.Rows {
		ft.Rows[i] = make([]int64, fleet.DayCols)
		ft.Wear[i] = report.NewSketch(wearLevels)
	}
	return ft
}

// buildCell assembles a small checkpoint cell by hand: file magic and
// version, a header frame, one device frame holding st, and a footer frame
// holding ft with the end marker. tamper, when not nil, rewrites the device
// frame's payload before it is framed, so the damage sits under a valid
// CRC.
func buildCell(st *deviceState, ft *epochFooter, tamper func([]byte) []byte) []byte {
	var out []byte
	out = append(out, fileMagic...)
	out = binary.LittleEndian.AppendUint32(out, ckptVersion)
	frame := func(typ byte, payload []byte) {
		out = append(out, typ)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
		out = append(out, payload...)
		out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	}

	var e codec
	e.fileHeader(&fileHeader{Seed: 7, Devices: 2, Days: 3, Shard: 0, Epoch: 1, DevLo: 0, DevHi: 2, DayLo: 0, DayHi: 3})
	frame(frameHeader, e.b)
	e = codec{}
	e.deviceState(st)
	if tamper != nil {
		e.b = tamper(e.b)
	}
	frame(frameDevice, e.b)
	e = codec{}
	e.footer(ft)
	frame(frameFooter, e.b)

	out = append(out, endMagic...)
	return out
}

// buildSeedCell is the fully valid seed cell: it decodes cleanly, so
// mutations of it explore the deep paths.
func buildSeedCell(tamper func([]byte) []byte) []byte {
	return buildCell(seedDevice(), seedFooter(), tamper)
}

// hostileDevice passes every per-field check yet claims far more than its
// frame carries: each of its 20 blocks holds one zero page (5 frame bytes)
// and NextPage 65 536, which a decode that trusted NextPage would carve
// into 1.3 million page-index entries (31 MiB) for a 1.6 KB frame.
func hostileDevice() *deviceState {
	const blocks, pages = 20, 1 << 16
	data := make([][]byte, pages) // every block's; the encoder only reads it
	data[0] = make([]byte, 16)
	st := seedDevice()
	st.Main = &nand.ChipState{
		Geometry: nand.Geometry{Dies: 1, PlanesPerDie: 1, BlocksPerPlane: blocks, PagesPerBlock: pages, PageSize: 16},
		Blocks:   make([]nand.BlockState, blocks),
	}
	for i := range st.Main.Blocks {
		st.Main.Blocks[i] = nand.BlockState{NextPage: pages, Data: data}
	}
	return st
}

// hybridDevice is the seed device with an SLC cache chip beside its main
// one: a block with one span page ending on the page's last byte.
func hybridDevice() *deviceState {
	st := seedDevice()
	geo := nand.Geometry{Dies: 1, PlanesPerDie: 1, BlocksPerPlane: 1, PagesPerBlock: 2, PageSize: 16}
	page := make([]byte, geo.PageSize)
	page[12], page[15] = 0x5A, 0x3C
	st.Cache = &nand.ChipState{
		Geometry: geo,
		Stats:    nand.Stats{Programs: 1, Erases: 1, BytesProgrammed: 16},
		Blocks: []nand.BlockState{{EraseCount: 1, Healed: 0.5, Stress: 1.25, NextPage: 1, FirstProg: 7, Reads: 3,
			Meta: []nand.OOB{{LP: 2, Seq: 3, Org: 2}}, Data: [][]byte{page}}},
	}
	return st
}

// finalFooter is the seed footer of a horizon's last epoch: a death in Agg,
// and in Final that death and a survivor, so both carry named groups,
// non-empty histograms and a ledger.
func finalFooter() *epochFooter {
	ft := seedFooter()
	dead := fleet.DeviceResult{ProfileName: "blu-4gb", Class: fleet.ClassAttack, Bricked: true, Days: 2.5, HostBytes: 3 << 30, WA: 2.25}
	live := fleet.DeviceResult{ProfileName: "moto-e", Class: fleet.ClassBenign, Days: 3, HostBytes: 1 << 28, WearLevel: 2, WA: 1.5}
	wear := wtrace.Snapshot{PageSize: 16, Rows: []wtrace.Row{{Origin: "attack", HostPages: 9, PhysPages: 20, Erases: 1}}}
	ft.Agg.add(dead, wear)
	ft.Final = ft.Agg.clone()
	ft.Final.add(live, wtrace.Snapshot{PageSize: 16, Rows: []wtrace.Row{{Origin: "os", HostPages: 4, PhysPages: 5}}})
	ft.Live = 0
	return ft
}

// rewrite returns a tamper that replaces old, which must occur, with repl.
func rewrite(old, repl []byte) func([]byte) []byte {
	return func(payload []byte) []byte {
		if !bytes.Contains(payload, old) {
			panic("seed cell's device frame lacks the bytes to tamper with")
		}
		return bytes.Replace(payload, old, repl, 1)
	}
}

// respan returns a tamper that rewrites the seed cell's span page.
func respan(repl ...byte) func([]byte) []byte { return rewrite(seedSpan, repl) }

// corpusSeed is one committed seed and what opening and scanning it
// must report.
type corpusSeed struct {
	name string
	data []byte
	want error
}

// corpusSeeds is the committed corpus, testdata/fuzz/FuzzCellDecode/
// seed-NN in this order: the valid cell, the spellings of a page list the
// decoder must refuse under a valid CRC, damage at the file layer, and
// then the seeds added since, each at the end so that no committed seed
// moves.
// Wrong-version cells are absent on purpose (FuzzCellDecode adds one
// itself): TestFuzzCorpusCurrent treats any committed one as stale.
func corpusSeeds() []corpusSeed {
	seed := buildSeedCell(nil)
	hdrEnd := len(fileMagic) + 4 + 5 + 9*8 + 4 // magic, version, header frame
	flipped := bytes.Clone(seed)
	flipped[hdrEnd+5+3] ^= 0xFF
	lying := bytes.Clone(seed)
	binary.LittleEndian.PutUint32(lying[hdrEnd+1:], 0xFFFFFFFF)
	footerFirst := append(bytes.Clone(seed[:len(fileMagic)+4]), frameFooter, 1, 0, 0, 0, '0', 0, 0, 0, 0)
	// Block 0's page list: two entries, page 0 the span and page 1 zero.
	pages := append(append([]byte{2, 0, 0, 0, 0, 0, 0, 0}, seedSpan...), 1, 0, 0, 0, 1)
	swapped := append([]byte{2, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0}, seedSpan...)
	return []corpusSeed{
		{"valid cell", seed, nil},
		{"span starts on a zero", buildSeedCell(respan(0, 2, 0, 3, 0, 0, 0xA5, 0xA5, 0xA5)), ErrCheckpointCorrupt},
		{"span ends on a zero", buildSeedCell(respan(0, 3, 0, 3, 0, 0xA5, 0xA5, 0xA5, 0)), ErrCheckpointCorrupt},
		{"span runs past the page", buildSeedCell(respan(0, 14, 0, 2, 0, 0xA5, 0xA5, 0xA5)), ErrCheckpointCorrupt},
		{"span longer than the frame", buildSeedCell(respan(0, 3, 0, 0xFF, 0xFF, 0xA5, 0xA5)), ErrCheckpointCorrupt},
		{"page flag neither 0 nor 1", buildSeedCell(respan(2, 3, 0, 2, 0, 0xA5, 0xA5, 0xA5)), ErrCheckpointCorrupt},
		{"pages out of order", buildSeedCell(rewrite(pages, swapped)), ErrCheckpointCorrupt},
		{"device payload one byte short", buildSeedCell(func(p []byte) []byte { return p[:len(p)-1] }), ErrCheckpointCorrupt},
		{"cut inside the device frame", seed[:hdrEnd+5+40], ErrCheckpointTruncated},
		{"end marker missing", seed[:len(seed)-len(endMagic)], ErrCheckpointTruncated},
		{"data past the end marker", append(bytes.Clone(seed), 0), ErrCheckpointCorrupt},
		{"device payload flipped under its CRC", flipped, ErrCheckpointCorrupt},
		{"device frame claims 4 GiB", lying, ErrCheckpointTruncated},
		{"footer frame first", footerFirst, ErrCheckpointCorrupt},
		{"magic and version only", seed[:len(fileMagic)+4], ErrCheckpointTruncated},
		{"no magic", []byte("00000000"), ErrCheckpointCorrupt},
		{"page index larger than the frame", buildCell(hostileDevice(), seedFooter(), nil), ErrCheckpointCorrupt},
		{"valid hybrid device", buildCell(hybridDevice(), seedFooter(), nil), nil},
		{"valid final epoch", buildCell(seedDevice(), finalFooter(), nil), nil},
	}
}

// TestCorpusSeedErrors runs every seed through the reader and requires
// its designated sentinel: in particular a non-canonical page under a
// valid CRC is corrupt, never decoded and never "truncated".
func TestCorpusSeedErrors(t *testing.T) {
	for _, cs := range corpusSeeds() {
		r, err := openCell(fuzzFS{"cell.ckpt": cs.data}, "cell.ckpt", newCellBufs())
		if err == nil {
			_, err = r.scan(func(*deviceState) error { return nil })
			r.Close()
		}
		if !errors.Is(err, cs.want) { // errors.Is(err, nil) holds only for a nil err
			t.Errorf("%s: got %v, want %v", cs.name, err, cs.want)
		}
	}
}

// corpusDir holds FuzzCellDecode's committed seeds, in the layout and
// file format `go test -fuzz` reads and writes.
var corpusDir = filepath.Join("testdata", "fuzz", "FuzzCellDecode")

var updateCorpus = flag.Bool("update", false, "rewrite testdata/fuzz/FuzzCellDecode/seed-NN from corpusSeeds at the current codec version")

// readCorpusFile decodes one single-[]byte corpus file.
func readCorpusFile(path string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	header, body, _ := strings.Cut(string(raw), "\n")
	body = strings.TrimSpace(body)
	if header != "go test fuzz v1" || !strings.HasPrefix(body, "[]byte(") || !strings.HasSuffix(body, ")") {
		return nil, fmt.Errorf("%s: not a single-[]byte fuzz corpus file", path)
	}
	v, err := strconv.Unquote(body[len("[]byte(") : len(body)-1])
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return []byte(v), nil
}

// TestFuzzCorpusCurrent keeps the committed corpus on the codec's side of
// the version check: a seed stamped with another version stops at
// ErrCheckpointVersion and fuzzes nothing behind it. After a codec change,
// `go test ./internal/fleetd -run TestFuzzCorpusCurrent -update` rewrites
// seed-NN; crashers the fuzzer added under other names are only checked.
func TestFuzzCorpusCurrent(t *testing.T) {
	seeds := corpusSeeds()
	if *updateCorpus {
		for i, cs := range seeds {
			text := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", cs.data)
			if err := os.WriteFile(filepath.Join(corpusDir, fmt.Sprintf("seed-%02d", i)), []byte(text), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	entries, err := os.ReadDir(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	committed := map[string][]byte{}
	for _, ent := range entries {
		b, err := readCorpusFile(filepath.Join(corpusDir, ent.Name()))
		if err != nil {
			t.Error(err)
			continue
		}
		committed[ent.Name()] = b
		if len(b) >= len(fileMagic)+4 && string(b[:len(fileMagic)]) == fileMagic {
			if v := binary.LittleEndian.Uint32(b[len(fileMagic):]); v != ckptVersion {
				t.Errorf("%s is a version %d cell, codec version is %d: rerun with -update", ent.Name(), v, ckptVersion)
			}
		}
	}
	for i, cs := range seeds {
		name := fmt.Sprintf("seed-%02d", i)
		if !bytes.Equal(committed[name], cs.data) {
			t.Errorf("%s (%s) is not what the codec builds today: rerun with -update", name, cs.name)
		}
	}
}

// FuzzCellDecode drives the checkpoint reader with arbitrary bytes. The
// contract under test: openCell/scan never panic and never allocate
// proportionally to a lying length field, and every failure maps to
// exactly the three-way error policy — ErrCheckpointTruncated,
// ErrCheckpointCorrupt, or ErrCheckpointVersion — so the sweep's
// cellUsable triage (recompute vs refuse) always has a defined answer.
// Two bounds keep the allocation honest: a count's items must fit in the
// bytes left at their least encoded size, and a device frame carves at
// most one page-index entry per 8 of its bytes, however large the NextPage
// its blocks claim (seed-16 is a frame that only the second bound
// refuses). And what does decode is canonical: every device frame scan
// accepts re-encodes to its own payload bytes, which is what lets fork
// restamp a cell by decode and re-encode — each frame decoded into the
// arena the cell's earlier frames used, as a worker decodes.
func FuzzCellDecode(f *testing.F) {
	seed := buildSeedCell(nil)
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte(fileMagic))
	f.Add(seed[:len(seed)-3])        // missing end marker tail
	f.Add(seed[:len(fileMagic)+4+5]) // truncated mid-frame
	for _, cut := range []int{12, 40, len(seed) / 2} {
		if cut < len(seed) {
			f.Add(seed[:cut])
		}
	}
	flipped := append([]byte(nil), seed...)
	flipped[len(fileMagic)+4+5+3] ^= 0xFF // corrupt header frame payload (CRC catches it)
	f.Add(flipped)
	lying := append([]byte(nil), seed...)
	binary.LittleEndian.PutUint32(lying[len(fileMagic)+4+1:], 0xFFFFFFFF) // giant frame length claim
	f.Add(lying)
	wrongVer := append([]byte(nil), seed...)
	binary.LittleEndian.PutUint32(wrongVer[len(fileMagic):], ckptVersion+1)
	f.Add(wrongVer)

	bufs := newCellBufs() // the fuzz function runs one input at a time
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			t.Skip("oversized input")
		}
		check := func(err error) {
			if err == nil {
				return
			}
			if !errors.Is(err, ErrCheckpointTruncated) &&
				!errors.Is(err, ErrCheckpointCorrupt) &&
				!errors.Is(err, ErrCheckpointVersion) {
				t.Fatalf("error outside the checkpoint error policy: %v", err)
			}
		}
		fsys := fuzzFS{"cell.ckpt": data}
		r, err := openCell(fsys, "cell.ckpt", bufs)
		if err != nil {
			check(err)
			return
		}
		defer r.Close()
		devices := 0
		_, err = r.scan(func(st *deviceState) error {
			devices++
			if st == nil {
				t.Fatal("scan delivered a nil device state without an error")
			}
			var re codec
			re.deviceState(st)
			if !bytes.Equal(re.b, r.buf.Bytes()) {
				t.Fatal("a device frame decoded but does not re-encode to its payload")
			}
			return nil
		})
		check(err)
	})
}
