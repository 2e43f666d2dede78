package nand

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

func testGeometry() Geometry {
	return Geometry{
		Dies: 1, PlanesPerDie: 2, BlocksPerPlane: 8,
		PagesPerBlock: 16, PageSize: 4096, SpareSize: 128,
	}
}

func newTestChip(t *testing.T, mutate func(*Config)) *Chip {
	t.Helper()
	cfg := Config{Geometry: testGeometry(), Cell: MLC, Seed: 42}
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

func TestGeometryDerived(t *testing.T) {
	g := testGeometry()
	if g.Planes() != 2 || g.Blocks() != 16 || g.Pages() != 256 {
		t.Fatalf("planes/blocks/pages = %d/%d/%d, want 2/16/256", g.Planes(), g.Blocks(), g.Pages())
	}
	if g.BlockSize() != 16*4096 {
		t.Fatalf("BlockSize = %d", g.BlockSize())
	}
	if g.Capacity() != 16*16*4096 {
		t.Fatalf("Capacity = %d", g.Capacity())
	}
}

func TestGeometryValidate(t *testing.T) {
	cases := []func(*Geometry){
		func(g *Geometry) { g.Dies = 0 },
		func(g *Geometry) { g.PlanesPerDie = -1 },
		func(g *Geometry) { g.BlocksPerPlane = 0 },
		func(g *Geometry) { g.PagesPerBlock = 0 },
		func(g *Geometry) { g.PageSize = 1000 }, // not multiple of 512
		func(g *Geometry) { g.SpareSize = -1 },
	}
	for i, mutate := range cases {
		g := testGeometry()
		mutate(&g)
		if err := g.Validate(); err == nil {
			t.Errorf("case %d: Validate() = nil, want error", i)
		}
	}
	g := testGeometry()
	if err := g.Validate(); err != nil {
		t.Fatalf("valid geometry rejected: %v", err)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{Geometry: testGeometry(), Cell: CellType(9)}); err == nil {
		t.Error("invalid cell type accepted")
	}
	if _, err := New(Config{Geometry: testGeometry(), Cell: MLC, RatedPE: -5}); err == nil {
		t.Error("negative RatedPE accepted")
	}
	bad := ErrorModel{BaseRBER: 2}
	if _, err := New(Config{Geometry: testGeometry(), Cell: MLC, Errors: &bad}); err == nil {
		t.Error("invalid error model accepted")
	}
}

func TestCellTypeDefaults(t *testing.T) {
	if SLC.DefaultRatedPE() != 100_000 || MLC.DefaultRatedPE() != 3_000 || TLC.DefaultRatedPE() != 1_000 {
		t.Fatal("default rated P/E cycles do not match §2.1")
	}
	if SLC.BitsPerCell() != 1 || MLC.BitsPerCell() != 2 || TLC.BitsPerCell() != 3 {
		t.Fatal("bits per cell wrong")
	}
	if SLC.String() != "SLC" || MLC.String() != "MLC" || TLC.String() != "TLC" {
		t.Fatal("CellType.String wrong")
	}
	if CellType(0).Valid() || CellType(4).Valid() {
		t.Fatal("invalid cell types reported valid")
	}
}

func TestProgramReadRoundTrip(t *testing.T) {
	c := newTestChip(t, nil)
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i)
	}
	if _, err := c.ProgramPage(PageAddr{0, 0}, data); err != nil {
		t.Fatalf("ProgramPage: %v", err)
	}
	got, res, err := c.ReadPage(PageAddr{0, 0})
	if err != nil {
		t.Fatalf("ReadPage: %v", err)
	}
	if res.Latency != c.Timing().ReadPage {
		t.Errorf("read latency = %v, want %v", res.Latency, c.Timing().ReadPage)
	}
	for i := range got {
		if got[i] != byte(i) {
			t.Fatalf("byte %d = %d, want %d", i, got[i], byte(i))
		}
	}
}

func TestAccountingWriteReturnsNoData(t *testing.T) {
	c := newTestChip(t, nil)
	if _, err := c.ProgramPage(PageAddr{1, 0}, nil); err != nil {
		t.Fatalf("ProgramPage(nil): %v", err)
	}
	data, _, err := c.ReadPage(PageAddr{1, 0})
	if err != nil {
		t.Fatalf("ReadPage: %v", err)
	}
	if data != nil {
		t.Fatal("accounting-only page returned data")
	}
}

func TestSequentialProgrammingEnforced(t *testing.T) {
	c := newTestChip(t, nil)
	if _, err := c.ProgramPage(PageAddr{0, 1}, nil); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("out-of-order program err = %v, want ErrOutOfOrder", err)
	}
	if _, err := c.ProgramPage(PageAddr{0, 0}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ProgramPage(PageAddr{0, 0}, nil); !errors.Is(err, ErrNotErased) {
		t.Fatalf("reprogram err = %v, want ErrNotErased", err)
	}
}

func TestReadUnprogrammedPage(t *testing.T) {
	c := newTestChip(t, nil)
	if _, _, err := c.ReadPage(PageAddr{2, 0}); !errors.Is(err, ErrNotProgrammed) {
		t.Fatalf("err = %v, want ErrNotProgrammed", err)
	}
}

func TestEraseResetsBlock(t *testing.T) {
	c := newTestChip(t, nil)
	data := make([]byte, 4096)
	if _, err := c.ProgramPage(PageAddr{0, 0}, data); err != nil {
		t.Fatal(err)
	}
	if _, err := c.EraseBlock(0); err != nil {
		t.Fatal(err)
	}
	if c.EraseCount(0) != 1 {
		t.Fatalf("EraseCount = %d, want 1", c.EraseCount(0))
	}
	// Page 0 is programmable again and old data is gone.
	if _, err := c.ProgramPage(PageAddr{0, 0}, nil); err != nil {
		t.Fatalf("program after erase: %v", err)
	}
	got, _, err := c.ReadPage(PageAddr{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Fatal("data survived erase")
	}
}

func TestAddressBounds(t *testing.T) {
	c := newTestChip(t, nil)
	for _, a := range []PageAddr{{-1, 0}, {16, 0}, {0, -1}, {0, 16}} {
		if _, err := c.ProgramPage(a, nil); !errors.Is(err, ErrAddr) {
			t.Errorf("ProgramPage(%v) err = %v, want ErrAddr", a, err)
		}
		if _, _, err := c.ReadPage(a); !errors.Is(err, ErrAddr) {
			t.Errorf("ReadPage(%v) err = %v, want ErrAddr", a, err)
		}
	}
	if _, err := c.EraseBlock(99); !errors.Is(err, ErrAddr) {
		t.Errorf("EraseBlock(99) err = %v, want ErrAddr", err)
	}
}

// forced injects fault f into every operation of kind op.
type forced struct {
	op Op
	f  Fault
}

func (f *forced) Inject(op Op) Fault {
	if op == f.op {
		return f.f
	}
	return FaultNone
}

func (f *forced) Down() bool { return false }

// TestErrorTextPinned spells out every failing operation's message, so the
// error values behind them can change without any text changing.
func TestErrorTextPinned(t *testing.T) {
	inj := &forced{}
	c := newTestChip(t, func(cfg *Config) { cfg.Inject = inj })
	c.MarkBad(3)
	if _, err := c.ProgramPage(PageAddr{0, 0}, nil); err != nil {
		t.Fatal(err)
	}
	prog := func(_ OpResult, err error) string { return fmt.Sprint(err) }
	read := func(_ []byte, _ OpResult, err error) string { return fmt.Sprint(err) }
	with := func(op Op, f Fault, text func() string) string {
		inj.op, inj.f = op, f
		defer func() { inj.f = FaultNone }()
		return text()
	}
	got := []string{
		prog(c.ProgramPage(PageAddr{16, 0}, nil)),
		read(c.ReadPage(PageAddr{0, -1})),
		prog(c.EraseBlock(99)),
		prog(c.ProgramPage(PageAddr{3, 0}, nil)),
		read(c.ReadPage(PageAddr{3, 0})),
		prog(c.EraseBlock(3)),
		prog(c.ProgramPage(PageAddr{0, 0}, nil)),
		prog(c.ProgramPage(PageAddr{0, 2}, nil)),
		prog(c.ProgramPage(PageAddr{0, 1}, make([]byte, 100))),
		read(c.ReadPage(PageAddr{0, 5})),
		with(OpProgram, FaultPowerCut, func() string { return prog(c.ProgramPage(PageAddr{0, 1}, nil)) }),
		with(OpRead, FaultPowerCut, func() string { return read(c.ReadPage(PageAddr{0, 0})) }),
		with(OpErase, FaultPowerCut, func() string { return prog(c.EraseBlock(1)) }),
		with(OpRead, FaultRead, func() string { return read(c.ReadPage(PageAddr{0, 0})) }),
		with(OpProgram, FaultProgram, func() string { return prog(c.ProgramPage(PageAddr{0, 1}, nil)) }),
		with(OpErase, FaultErase, func() string { return prog(c.EraseBlock(1)) }),
	}
	want := []string{
		"nand: address out of range: blk16/pg0",
		"nand: address out of range: blk0/pg-1",
		"nand: address out of range: block 99",
		"nand: block is marked bad: blk3/pg0",
		"nand: block is marked bad: blk3/pg0",
		"nand: block is marked bad: block 3",
		"nand: page already programmed since last erase: blk0/pg0",
		"nand: pages must be programmed sequentially within a block: blk0/pg2 (next programmable page 1)",
		"nand: program blk0/pg1: data length 100 != page size 4096",
		"nand: reading an unprogrammed page: blk0/pg5",
		"nand: power lost: program blk0/pg1",
		"nand: power lost: read blk0/pg0",
		"nand: power lost: erase block 1",
		"nand: raw bit errors exceed ECC capability: blk0/pg0 (injected transient)",
		"nand: program operation failed: blk0/pg1",
		"nand: erase operation failed: block 1",
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("case %d: got %q, want %q", i, got[i], want[i])
		}
	}

	em := DefaultErrorModel()
	em.BaseRBER = 0.01 // ~82 raw bit errors per codeword
	c = newTestChip(t, func(cfg *Config) { cfg.Errors = &em })
	if _, err := c.ProgramPage(PageAddr{0, 0}, nil); err != nil {
		t.Fatal(err)
	}
	_, res, err := c.ReadPage(PageAddr{0, 0})
	if want := fmt.Sprintf("nand: raw bit errors exceed ECC capability: blk0/pg0 (%d bit errors > t=8)", res.BitErrors); fmt.Sprint(err) != want {
		t.Errorf("organic uncorrectable read: got %q, want %q", err, want)
	}
	if !errors.Is(err, ErrUncorrectable) {
		t.Errorf("organic uncorrectable read %v is not ErrUncorrectable", err)
	}
}

func TestBadBlockRejectsOps(t *testing.T) {
	c := newTestChip(t, nil)
	c.MarkBad(3)
	if !c.Bad(3) {
		t.Fatal("block 3 not bad after MarkBad")
	}
	if c.Stats().BadBlocks != 1 {
		t.Fatalf("BadBlocks = %d, want 1", c.Stats().BadBlocks)
	}
	c.MarkBad(3) // idempotent
	if c.Stats().BadBlocks != 1 {
		t.Fatal("MarkBad not idempotent")
	}
	if _, err := c.ProgramPage(PageAddr{3, 0}, nil); !errors.Is(err, ErrBadBlock) {
		t.Errorf("program bad block err = %v", err)
	}
	if _, _, err := c.ReadPage(PageAddr{3, 0}); !errors.Is(err, ErrBadBlock) {
		t.Errorf("read bad block err = %v", err)
	}
	if _, err := c.EraseBlock(3); !errors.Is(err, ErrBadBlock) {
		t.Errorf("erase bad block err = %v", err)
	}
}

func TestWearGrowsWithErases(t *testing.T) {
	c := newTestChip(t, func(cfg *Config) { cfg.RatedPE = 100 })
	for i := 0; i < 50; i++ {
		if _, err := c.EraseBlock(0); err != nil {
			t.Fatalf("erase %d: %v", i, err)
		}
	}
	w := c.Wear(0)
	if w < 0.45 || w > 0.55 {
		t.Fatalf("Wear after 50/100 cycles = %v, want ~0.5", w)
	}
	if c.MaxWear() < c.AvgWear() {
		t.Fatal("MaxWear < AvgWear")
	}
}

func TestFreshChipIsReliable(t *testing.T) {
	c := newTestChip(t, nil)
	for b := 0; b < 4; b++ {
		for p := 0; p < 16; p++ {
			if _, err := c.ProgramPage(PageAddr{b, p}, nil); err != nil {
				t.Fatalf("fresh program %v failed: %v", PageAddr{b, p}, err)
			}
			if _, _, err := c.ReadPage(PageAddr{b, p}); err != nil {
				t.Fatalf("fresh read %v failed: %v", PageAddr{b, p}, err)
			}
		}
	}
	s := c.Stats()
	if s.ProgramFails != 0 || s.UncorrectableReads != 0 {
		t.Fatalf("fresh chip produced failures: %+v", s)
	}
}

func TestWornChipFails(t *testing.T) {
	// Push one block far past rated endurance; reads and programs there
	// must start failing.
	c := newTestChip(t, func(cfg *Config) { cfg.RatedPE = 20 })
	fails := 0
	for i := 0; i < 50; i++ { // 2.5x rated
		if _, err := c.EraseBlock(0); err != nil {
			fails++
		}
	}
	for i := 0; i < 30; i++ {
		if _, err := c.ProgramPage(PageAddr{0, 0}, nil); err != nil {
			fails++
		}
		if _, err := c.EraseBlock(0); err != nil {
			fails++
		}
	}
	if fails == 0 {
		t.Fatal("block at 2.5x+ rated endurance never failed an operation")
	}
}

func TestStatsCount(t *testing.T) {
	c := newTestChip(t, nil)
	_, _ = c.ProgramPage(PageAddr{0, 0}, nil)
	_, _, _ = c.ReadPage(PageAddr{0, 0})
	_, _ = c.EraseBlock(0)
	s := c.Stats()
	if s.Programs != 1 || s.Reads != 1 || s.Erases != 1 {
		t.Fatalf("stats = %+v, want 1/1/1", s)
	}
	if s.BytesProgrammed != 4096 {
		t.Fatalf("BytesProgrammed = %d, want 4096", s.BytesProgrammed)
	}
}

func TestProgramWrongLength(t *testing.T) {
	c := newTestChip(t, nil)
	if _, err := c.ProgramPage(PageAddr{0, 0}, make([]byte, 100)); err == nil {
		t.Fatal("short payload accepted")
	}
}

func TestHealingReducesWear(t *testing.T) {
	now := time.Duration(0)
	em := DefaultErrorModel()
	em.HealPerIdleHour = 1 // one cycle healed per idle hour
	c := newTestChip(t, func(cfg *Config) {
		cfg.RatedPE = 100
		cfg.Errors = &em
		cfg.Now = func() time.Duration { return now }
	})
	for i := 0; i < 40; i++ {
		if _, err := c.EraseBlock(0); err != nil {
			t.Fatal(err)
		}
	}
	before := c.Wear(0)
	now += 10 * time.Hour // idle decade
	if _, err := c.EraseBlock(0); err != nil {
		t.Fatal(err)
	}
	after := c.Wear(0)
	if after >= before {
		t.Fatalf("wear did not heal: before %v after %v", before, after)
	}
}

func TestRetentionIncreasesErrors(t *testing.T) {
	em := DefaultErrorModel()
	if a, b := em.RBERWithRetention(0.9, 0), em.RBERWithRetention(0.9, 10_000); b <= a {
		t.Fatalf("retention did not increase RBER: %v vs %v", a, b)
	}
}

func TestErrorModelShape(t *testing.T) {
	em := DefaultErrorModel()
	if em.RBER(0.5) <= em.RBER(0) {
		t.Fatal("RBER not increasing in wear")
	}
	if em.RBER(10) > 0.5 {
		t.Fatal("RBER not clamped")
	}
	if em.FailProb(0) >= em.FailProb(1.5) {
		t.Fatal("FailProb not increasing")
	}
	if em.FailProb(100) != 1 {
		t.Fatal("FailProb not clamped to 1")
	}
}

func TestErrorModelValidate(t *testing.T) {
	bad := []ErrorModel{
		{BaseRBER: -1},
		{BaseRBER: 0.1, RBERGrowth: -1},
		{BaseRBER: 0.1, BaseFail: 2},
		{BaseRBER: 0.1, FailGrowth: -3},
		{BaseRBER: 0.1, RetentionRBERPerHour: -1},
		{BaseRBER: 0.1, HealPerIdleHour: -1},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: invalid model accepted", i)
		}
	}
	if err := DefaultErrorModel().Validate(); err != nil {
		t.Fatalf("default model invalid: %v", err)
	}
}

func TestTimingDefaultsOrdered(t *testing.T) {
	// Denser cells are slower to program.
	if !(DefaultTiming(SLC).ProgramPage < DefaultTiming(MLC).ProgramPage &&
		DefaultTiming(MLC).ProgramPage < DefaultTiming(TLC).ProgramPage) {
		t.Fatal("program latency should grow with density")
	}
	if err := (Timing{}).Validate(); err == nil {
		t.Fatal("zero timing accepted")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Stats {
		c := newTestChip(t, func(cfg *Config) { cfg.RatedPE = 25; cfg.Seed = 7 })
		for i := 0; i < 60; i++ {
			_, _ = c.EraseBlock(0)
			_, _ = c.ProgramPage(PageAddr{0, 0}, nil)
		}
		return c.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed produced different stats:\n%+v\n%+v", a, b)
	}
}

func TestPlaneStriping(t *testing.T) {
	g := testGeometry()
	if g.PlaneOf(0) == g.PlaneOf(1) {
		t.Fatal("consecutive blocks should land on different planes")
	}
}
