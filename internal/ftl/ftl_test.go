package ftl

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"flashwear/internal/nand"
)

// testChipCfg returns a small chip: 32 blocks x 16 pages x 4 KiB = 2 MiB.
func testChipCfg(rated int) nand.Config {
	return nand.Config{
		Geometry: nand.Geometry{
			Dies: 1, PlanesPerDie: 2, BlocksPerPlane: 16,
			PagesPerBlock: 16, PageSize: 4096,
		},
		Cell:    nand.MLC,
		RatedPE: rated,
		Seed:    11,
	}
}

func newTestFTL(t *testing.T, mutate func(*Config)) *FTL {
	t.Helper()
	cfg := Config{MainChip: testChipCfg(100_000)}
	if mutate != nil {
		mutate(&cfg)
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return f
}

func page(b byte, size int) []byte {
	p := make([]byte, size)
	for i := range p {
		p[i] = b
	}
	return p
}

func TestConfigValidation(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.OverProvision = 0.9 },
		func(c *Config) { c.GC = GCPolicy(9) },
	}
	for i, mutate := range cases {
		cfg := Config{MainChip: testChipCfg(1000)}
		cfg.setDefaults()
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestHybridConfigValidation(t *testing.T) {
	bad := []HybridConfig{
		{DrainRatio: -1},
		{DrainRatio: 0.1, MergeUtilisation: -1},
	}
	for i := range bad {
		cfg := Config{MainChip: testChipCfg(1000), Hybrid: &bad[i]}
		cfg.setDefaults()
		// restore the deliberately bad fields wiped by defaults
		*cfg.Hybrid = bad[i]
		cfg.Hybrid.CacheChip = testChipCfg(1000)
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: invalid hybrid config accepted: %+v", i, bad[i])
		}
	}
}

func TestCapacityAfterOverProvision(t *testing.T) {
	f := newTestFTL(t, func(c *Config) { c.OverProvision = 0.25 })
	// 32 blocks, 25% OP -> 24 user blocks -> 24*16 pages.
	if f.LogicalPages() != 24*16 {
		t.Fatalf("LogicalPages = %d, want %d", f.LogicalPages(), 24*16)
	}
	if f.Capacity() != int64(24*16*4096) {
		t.Fatalf("Capacity = %d", f.Capacity())
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	f := newTestFTL(t, nil)
	want := page(0xAB, 4096)
	if _, err := f.WritePage(5, want, 4096); err != nil {
		t.Fatalf("WritePage: %v", err)
	}
	got, _, err := f.ReadPage(5)
	if err != nil {
		t.Fatalf("ReadPage: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("read != written")
	}
}

func TestUnmappedReadsNil(t *testing.T) {
	f := newTestFTL(t, nil)
	got, cost, err := f.ReadPage(9)
	if err != nil || got != nil {
		t.Fatalf("unmapped read = (%v, %v), want (nil, nil)", got, err)
	}
	if cost.Reads != 0 {
		t.Fatal("unmapped read touched flash")
	}
}

func TestOverwriteReturnsNewData(t *testing.T) {
	f := newTestFTL(t, nil)
	for v := 0; v < 5; v++ {
		if _, err := f.WritePage(3, page(byte(v), 4096), 4096); err != nil {
			t.Fatal(err)
		}
	}
	got, _, err := f.ReadPage(3)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 4 {
		t.Fatalf("read %d, want 4 (latest)", got[0])
	}
}

func TestTrimUnmaps(t *testing.T) {
	f := newTestFTL(t, nil)
	if _, err := f.WritePage(2, page(1, 4096), 4096); err != nil {
		t.Fatal(err)
	}
	if f.Utilisation() == 0 {
		t.Fatal("utilisation should be > 0 after write")
	}
	if _, err := f.TrimPage(2); err != nil {
		t.Fatal(err)
	}
	if got, _, _ := f.ReadPage(2); got != nil {
		t.Fatal("trimmed page still has data")
	}
	if f.Utilisation() != 0 {
		t.Fatalf("utilisation = %v after trim, want 0", f.Utilisation())
	}
}

func TestRangeChecks(t *testing.T) {
	f := newTestFTL(t, nil)
	if _, err := f.WritePage(-1, nil, 4096); !errors.Is(err, ErrRange) {
		t.Error("negative page accepted")
	}
	if _, err := f.WritePage(f.LogicalPages(), nil, 4096); !errors.Is(err, ErrRange) {
		t.Error("out-of-range page accepted")
	}
	if _, _, err := f.ReadPage(1 << 30); !errors.Is(err, ErrRange) {
		t.Error("out-of-range read accepted")
	}
	if _, err := f.WritePage(0, make([]byte, f.PageSize()+1), 4096); err == nil {
		t.Error("payload longer than a page accepted")
	}
}

// TestWritePageShortPayload: a payload shorter than a page is the page's
// prefix, zero-extended, on either pool; the chip lends back the prefix up
// to its last non-zero byte, all of these payloads.
func TestWritePageShortPayload(t *testing.T) {
	for _, hybrid := range []bool{false, true} {
		f := newTestFTL(t, nil)
		if hybrid {
			f = hybridFTL(t, 0.25, 0.8)
		}
		for i, n := range []int{0, 1, 100, f.PageSize() - 1} {
			p := bytes.Repeat([]byte{byte(i + 1)}, n)
			if _, err := f.WritePage(i, p, 4096); err != nil {
				t.Fatalf("hybrid=%v: %d-byte payload: %v", hybrid, n, err)
			}
			got, _, err := f.ReadPage(i)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, p) {
				t.Errorf("hybrid=%v: %d-byte payload reads back as %d bytes", hybrid, n, len(got))
			}
		}
	}
}

// TestGCReclaimsSpace writes far more data than raw capacity; GC must keep
// reclaiming invalidated pages indefinitely on a healthy chip.
func TestGCReclaimsSpace(t *testing.T) {
	f := newTestFTL(t, nil)
	rng := rand.New(rand.NewSource(3))
	hot := f.LogicalPages() / 4 // hot quarter of the space
	for i := 0; i < f.LogicalPages()*20; i++ {
		lp := rng.Intn(hot)
		if _, err := f.WritePage(lp, nil, 4096); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if f.Bricked() {
		t.Fatal("healthy device bricked during GC workload")
	}
	wa := f.WriteAmplification()
	if wa < 1 {
		t.Fatalf("write amplification %v < 1", wa)
	}
	if wa > 3 {
		t.Fatalf("write amplification %v unreasonably high at low utilisation", wa)
	}
}

// TestWAIncreasesWithUtilisation reproduces §4.3's "Advanced Factors": more
// static data means more GC copy work per reclaimed block.
func TestWAIncreasesWithUtilisation(t *testing.T) {
	run := func(staticFrac float64) float64 {
		f := newTestFTL(t, nil)
		n := f.LogicalPages()
		staticPages := int(staticFrac * float64(n))
		for lp := 0; lp < staticPages; lp++ {
			if _, err := f.WritePage(lp, nil, 128<<10); err != nil {
				t.Fatal(err)
			}
		}
		// Rewrite a small hot region in the remaining space.
		hotBase := staticPages
		hotLen := n/10 + 1
		if hotBase+hotLen > n {
			hotBase = n - hotLen
		}
		rng := rand.New(rand.NewSource(4))
		before := f.Stats().HostPagesWritten
		beforeProgs := f.MainChip().Stats().Programs
		for i := 0; i < n*10; i++ {
			if _, err := f.WritePage(hotBase+rng.Intn(hotLen), nil, 4096); err != nil {
				t.Fatal(err)
			}
		}
		host := f.Stats().HostPagesWritten - before
		progs := f.MainChip().Stats().Programs - beforeProgs
		return float64(progs) / float64(host)
	}
	low, high := run(0.05), run(0.85)
	if high <= low {
		t.Fatalf("WA at 85%% utilisation (%v) should exceed WA at 5%% (%v)", high, low)
	}
}

// TestWearLevelingSpreadsErases compares the erase-count spread with and
// without wear-leveling under a hot-spot workload.
func TestWearLevelingSpreadsErases(t *testing.T) {
	spread := func(noWL bool) float64 {
		f := newTestFTL(t, func(c *Config) { c.NoWearLeveling = noWL })
		// Static cold data fills most of the space...
		n := f.LogicalPages()
		for lp := 0; lp < n*3/4; lp++ {
			if _, err := f.WritePage(lp, nil, 128<<10); err != nil {
				t.Fatal(err)
			}
		}
		// ...and a tiny hot region takes all the rewrites.
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < n*30; i++ {
			if _, err := f.WritePage(n-1-rng.Intn(n/8), nil, 4096); err != nil {
				t.Fatal(err)
			}
		}
		chip := f.MainChip()
		min, max := 1<<30, 0
		for b := 0; b < chip.Geometry().Blocks(); b++ {
			ec := chip.EraseCount(b)
			if ec < min {
				min = ec
			}
			if ec > max {
				max = ec
			}
		}
		return float64(max - min)
	}
	with, without := spread(false), spread(true)
	if with >= without {
		t.Fatalf("erase spread with WL (%v) should be below without (%v)", with, without)
	}
}

// TestDeviceWearsOutAndBricks drives a low-endurance device to destruction,
// checking the indicator walks 1..11 and writes eventually fail — the core
// mechanism behind every experiment in §4. BrickAtEOL pins the legacy
// hard-brick behaviour the paper's phones exhibit; graceful read-only
// retirement (the default) is covered in recover_test.go.
func TestDeviceWearsOutAndBricks(t *testing.T) {
	f := newTestFTL(t, func(c *Config) { c.MainChip = testChipCfg(60); c.BrickAtEOL = true })
	rng := rand.New(rand.NewSource(6))
	lastIndicator := 0
	var err error
	for i := 0; i < 1_000_000; i++ {
		_, err = f.WritePage(rng.Intn(f.LogicalPages()/8), nil, 4096)
		if err != nil {
			break
		}
		if ind := f.WearIndicator(PoolB); ind < lastIndicator {
			t.Fatalf("wear indicator went backwards: %d -> %d", lastIndicator, ind)
		} else {
			lastIndicator = ind
		}
	}
	if err == nil {
		t.Fatal("device survived 1M writes at rated 60 P/E; wear model broken")
	}
	if !errors.Is(err, ErrBricked) {
		t.Fatalf("terminal error = %v, want ErrBricked", err)
	}
	if !f.Bricked() {
		t.Fatal("Bricked() false after terminal failure")
	}
	if lastIndicator < 10 {
		t.Fatalf("device died at indicator %d; expected to reach >= 10 first", lastIndicator)
	}
	// Everything fails once bricked.
	if _, err := f.WritePage(0, nil, 4096); !errors.Is(err, ErrBricked) {
		t.Fatal("write on bricked device did not return ErrBricked")
	}
	if _, err := f.Flush(); !errors.Is(err, ErrBricked) {
		t.Fatal("flush on bricked device did not return ErrBricked")
	}
	if f.PreEOLInfo() != 3 {
		t.Fatalf("PreEOLInfo = %d on bricked device, want 3 (urgent)", f.PreEOLInfo())
	}
}

func TestWearIndicatorLevels(t *testing.T) {
	f := newTestFTL(t, func(c *Config) { c.MainChip = testChipCfg(1000) })
	if ind := f.WearIndicator(PoolB); ind != 1 {
		t.Fatalf("fresh device indicator = %d, want 1", ind)
	}
	if f.PreEOLInfo() != 1 {
		t.Fatalf("fresh PreEOLInfo = %d, want 1", f.PreEOLInfo())
	}
	// Single-pool device reports Type A as unused (1).
	if ind := f.WearIndicator(PoolA); ind != 1 {
		t.Fatalf("single-pool Type A indicator = %d, want 1", ind)
	}
}

func TestFirmwareRatedOverride(t *testing.T) {
	// Firmware that assumes half the endurance reports wear twice as fast.
	mk := func(frw int) *FTL {
		return newTestFTL(t, func(c *Config) {
			c.MainChip = testChipCfg(1000)
			c.FirmwareRatedPE = frw
		})
	}
	a, b := mk(0), mk(500)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		lp := rng.Intn(64)
		if _, err := a.WritePage(lp, nil, 4096); err != nil {
			t.Fatal(err)
		}
		if _, err := b.WritePage(lp, nil, 4096); err != nil {
			t.Fatal(err)
		}
	}
	if a.LifeConsumed(PoolB) >= b.LifeConsumed(PoolB) {
		t.Fatalf("firmware margin did not accelerate the indicator: %v vs %v",
			a.LifeConsumed(PoolB), b.LifeConsumed(PoolB))
	}
}

func TestStatsAccounting(t *testing.T) {
	f := newTestFTL(t, nil)
	for i := 0; i < 10; i++ {
		if _, err := f.WritePage(i, nil, 4096); err != nil {
			t.Fatal(err)
		}
	}
	s := f.Stats()
	if s.HostPagesWritten != 10 {
		t.Fatalf("HostPagesWritten = %d, want 10", s.HostPagesWritten)
	}
	if s.HostBytesWritten != 10*4096 {
		t.Fatalf("HostBytesWritten = %d", s.HostBytesWritten)
	}
	if _, _, err := f.ReadPage(0); err != nil {
		t.Fatal(err)
	}
	if f.Stats().HostPagesRead != 1 {
		t.Fatalf("HostPagesRead = %d, want 1", f.Stats().HostPagesRead)
	}
}

func TestCostAccumulates(t *testing.T) {
	var c Cost
	c.Add(Cost{Programs: 2, Reads: 3, Erases: 1})
	c.Add(Cost{Programs: 1})
	if c.Programs != 3 || c.Reads != 3 || c.Erases != 1 {
		t.Fatalf("Cost = %+v", c)
	}
}

func TestPoolIDString(t *testing.T) {
	if PoolA.String() != "Type A" || PoolB.String() != "Type B" {
		t.Fatal("PoolID strings wrong")
	}
	if GCGreedy.String() != "greedy" || GCCostBenefit.String() != "cost-benefit" {
		t.Fatal("GCPolicy strings wrong")
	}
}

func TestLocPacking(t *testing.T) {
	l := makeLoc(PoolB, 123456, 789)
	if l.pool() != PoolB || l.block() != 123456 || l.page() != 789 {
		t.Fatalf("loc round trip failed: %v", l)
	}
	if noLoc.String() != "unmapped" {
		t.Fatal("noLoc string")
	}
}

func TestGCPolicyComparison(t *testing.T) {
	// Both policies must sustain a skewed workload; cost-benefit should
	// not be catastrophically worse.
	run := func(p GCPolicy) float64 {
		f := newTestFTL(t, func(c *Config) { c.GC = p })
		rng := rand.New(rand.NewSource(8))
		n := f.LogicalPages()
		for lp := 0; lp < n/2; lp++ {
			if _, err := f.WritePage(lp, nil, 128<<10); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < n*15; i++ {
			// 90% of writes to 10% of space.
			var lp int
			if rng.Float64() < 0.9 {
				lp = rng.Intn(n / 10)
			} else {
				lp = rng.Intn(n / 2)
			}
			if _, err := f.WritePage(lp, nil, 4096); err != nil {
				t.Fatal(err)
			}
		}
		return f.WriteAmplification()
	}
	g, cb := run(GCGreedy), run(GCCostBenefit)
	if g <= 0 || cb <= 0 {
		t.Fatal("zero WA")
	}
	if cb > g*2 {
		t.Fatalf("cost-benefit WA %v more than 2x greedy %v", cb, g)
	}
}
