package device

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"time"

	"flashwear/internal/ftl"
	"flashwear/internal/simclock"
)

// testProfile is a tiny fast-wearing device for unit tests.
func testProfile() Profile {
	return Profile{
		Name: "test 16MiB", Kind: KindEMMC,
		CapacityBytes: 16 * MiB,
		Cell:          2, // MLC
		RatedPE:       80,
		PageSize:      4096, PagesPerBlock: 16, Parallelism: 2,
		OverProvision: 0.1, WearLeveling: true,
		CmdOverhead:   50 * time.Microsecond,
		InterfaceMBps: 100,
		ProgramTime:   900 * time.Microsecond, // MLC's default
		Seed:          7,
	}
}

func newTestDevice(t *testing.T, p Profile) *Device {
	t.Helper()
	d, err := New(p, simclock.New())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return d
}

func TestProfilesValidate(t *testing.T) {
	// The paper's seven §4.1 evaluation devices.
	if n := len(AllProfiles()); n != 7 {
		t.Fatalf("AllProfiles() = %d profiles, want 7", n)
	}
	for _, p := range AllProfiles() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
	if err := ProfileEMMC8TLC().Validate(); err != nil {
		t.Errorf("TLC variant: %v", err)
	}
	// A profile states its program time; there is no cell default.
	noProgram := testProfile()
	noProgram.ProgramTime = 0
	if err := noProgram.Validate(); err == nil {
		t.Error("profile without ProgramTime accepted")
	}
}

func TestProfileByName(t *testing.T) {
	p, err := ProfileByName("eMMC 16GB")
	if err != nil || p.Hybrid == nil {
		t.Fatalf("ProfileByName: %v, hybrid=%v", err, p.Hybrid)
	}
	if _, err := ProfileByName("nope"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestScaledPreservesGeometry(t *testing.T) {
	p := ProfileEMMC16()
	s := p.Scaled(64)
	if s.CapacityBytes != p.CapacityBytes/64 {
		t.Fatalf("scaled capacity = %d", s.CapacityBytes)
	}
	if s.Hybrid.CacheBytes != p.Hybrid.CacheBytes/64 {
		t.Fatalf("scaled cache = %d", s.Hybrid.CacheBytes)
	}
	if s.PageSize != p.PageSize || s.RatedPE != p.RatedPE {
		t.Fatal("scaling changed page size or endurance")
	}
	// Extreme scaling clamps to a usable minimum.
	tiny := p.Scaled(1 << 40)
	if tiny.CapacityBytes < 16*int64(p.PageSize)*int64(p.PagesPerBlock) {
		t.Fatal("scaled below minimum blocks")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Scaled(0) did not panic")
		}
	}()
	p.Scaled(0)
}

func TestDeviceReadWriteRoundTrip(t *testing.T) {
	d := newTestDevice(t, testProfile())
	want := bytes.Repeat([]byte{0x5A}, 8192)
	if err := d.WriteAt(want, 4096); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 8192)
	if err := d.ReadAt(got, 4096); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("round trip mismatch")
	}
}

func TestDeviceSubPageWrite(t *testing.T) {
	d := newTestDevice(t, testProfile())
	if err := d.WriteAt(bytes.Repeat([]byte{1}, 4096), 0); err != nil {
		t.Fatal(err)
	}
	// Overwrite 512 bytes in the middle: read-modify-write.
	if err := d.WriteAt(bytes.Repeat([]byte{2}, 512), 1024); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4096)
	if err := d.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 || got[1024] != 2 || got[1535] != 2 || got[1536] != 1 {
		t.Fatalf("sub-page merge wrong: %v %v %v %v", got[0], got[1024], got[1535], got[1536])
	}
}

func TestDeviceUnalignedRejected(t *testing.T) {
	d := newTestDevice(t, testProfile())
	if err := d.WriteAt(make([]byte, 512), 100); err == nil {
		t.Fatal("unaligned write accepted")
	}
	if err := d.WriteAt(make([]byte, 512), d.Size()); err == nil {
		t.Fatal("out-of-bounds write accepted")
	}
}

func TestDeviceAdvancesClock(t *testing.T) {
	d := newTestDevice(t, testProfile())
	before := d.clock.Now()
	if err := d.WriteAccounted(0, 64*1024); err != nil {
		t.Fatal(err)
	}
	if d.clock.Now() <= before {
		t.Fatal("clock did not advance with I/O")
	}
	if d.BusyTime() <= 0 {
		t.Fatal("busy time not accumulated")
	}
}

func TestBandwidthScalesWithRequestSize(t *testing.T) {
	// Figure 1's core shape: larger requests -> higher bandwidth until a
	// plateau; tiny (sub-page) requests are slow due to RMW.
	bw := func(reqSize int64) float64 {
		d := newTestDevice(t, testProfile())
		start := d.clock.Now()
		var off int64
		total := int64(4 << 20)
		for written := int64(0); written < total; written += reqSize {
			if err := d.WriteAccounted(off, reqSize); err != nil {
				t.Fatal(err)
			}
			off += reqSize
			if off+reqSize > d.Size() {
				off = 0
			}
		}
		elapsed := (d.clock.Now() - start).Seconds()
		return float64(total) / elapsed / (1 << 20) // MiB/s
	}
	small, mid, large := bw(512), bw(4096), bw(256<<10)
	if !(small < mid && mid < large) {
		t.Fatalf("bandwidth not increasing: 512B=%.1f 4K=%.1f 256K=%.1f", small, mid, large)
	}
}

func TestUSDRandomWritePenalty(t *testing.T) {
	// Random writes on the block-mapped card must be far slower than
	// sequential ones (Figure 1b's collapse).
	run := func(random bool) float64 {
		d := newTestDevice(t, ProfileUSD16().Scaled(256))
		rng := rand.New(rand.NewSource(1))
		start := d.clock.Now()
		total := int64(2 << 20)
		var off int64
		for w := int64(0); w < total; w += 4096 {
			if random {
				off = int64(rng.Intn(int(d.Size()/4096))) * 4096
			}
			if err := d.WriteAccounted(off, 4096); err != nil {
				t.Fatal(err)
			}
			if !random {
				off += 4096
				if off+4096 > d.Size() {
					off = 0
				}
			}
		}
		return float64(total) / (d.clock.Now() - start).Seconds() / (1 << 20)
	}
	seq, rnd := run(false), run(true)
	if rnd*4 > seq {
		t.Fatalf("uSD random (%.2f MiB/s) should be far slower than sequential (%.2f MiB/s)", rnd, seq)
	}
}

func TestEMMCRandomSimilarToSequential(t *testing.T) {
	// §4.2: "eMMC chips perform similarly for random and sequential".
	run := func(random bool) float64 {
		d := newTestDevice(t, ProfileEMMC8().Scaled(256))
		rng := rand.New(rand.NewSource(2))
		start := d.clock.Now()
		total := int64(2 << 20)
		var off int64
		for w := int64(0); w < total; w += 4096 {
			if random {
				off = int64(rng.Intn(int(d.Size()/4096))) * 4096
			}
			if err := d.WriteAccounted(off, 4096); err != nil {
				t.Fatal(err)
			}
			if !random {
				off += 4096
				if off+4096 > d.Size() {
					off = 0
				}
			}
		}
		return float64(total) / (d.clock.Now() - start).Seconds() / (1 << 20)
	}
	seq, rnd := run(false), run(true)
	ratio := rnd / seq
	if ratio < 0.5 || ratio > 2 {
		t.Fatalf("eMMC random/sequential ratio %.2f, want ~1", ratio)
	}
}

func TestDeviceWearsToBrick(t *testing.T) {
	p := testProfile()
	p.RatedPE = 40
	p.BrickAtEOL = true // pin the legacy hard-brick path (BLU behaviour)
	d := newTestDevice(t, p)
	rng := rand.New(rand.NewSource(3))
	var err error
	for i := 0; i < 2_000_000; i++ {
		off := int64(rng.Intn(int(d.Size()/4096/8))) * 4096
		if err = d.WriteAccounted(off, 4096); err != nil {
			break
		}
	}
	if !errors.Is(err, ErrBricked) {
		t.Fatalf("device did not brick: %v", err)
	}
	if !d.Bricked() {
		t.Fatal("Bricked() false")
	}
	if d.PreEOLInfo() != 3 {
		t.Fatalf("PreEOLInfo = %d, want 3", d.PreEOLInfo())
	}
}

func TestWearIndicatorProgresses(t *testing.T) {
	p := testProfile()
	p.RatedPE = 200
	d := newTestDevice(t, p)
	if d.WearIndicator(ftl.PoolA) != 1 || d.WearIndicator(ftl.PoolB) != 1 {
		t.Fatal("fresh device life-time estimates != 1")
	}
	if d.PreEOLInfo() != 1 {
		t.Fatalf("fresh PreEOLInfo = %d, want 1 (normal)", d.PreEOLInfo())
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 300_000 && d.WearIndicator(ftl.PoolB) < 3; i++ {
		off := int64(rng.Intn(int(d.Size()/4096/8))) * 4096
		if err := d.WriteAccounted(off, 4096); err != nil {
			t.Fatal(err)
		}
	}
	if d.WearIndicator(ftl.PoolB) < 3 {
		t.Fatal("indicator never reached 3")
	}
}

func TestUnreliableIndicator(t *testing.T) {
	p := ProfileBLU512().Scaled(64)
	d := newTestDevice(t, p)
	if d.PreEOLInfo() != 0 {
		t.Fatalf("BLU PreEOLInfo = %d, want 0 (out of spec)", d.PreEOLInfo())
	}
	// Garbage values: over many reads we should see out-of-range levels.
	sawGarbage := false
	for i := 0; i < 100; i++ {
		v := d.WearIndicator(ftl.PoolB)
		if v < 1 || v > 11 {
			sawGarbage = true
		}
	}
	if !sawGarbage {
		t.Fatal("unreliable indicator produced only in-spec values")
	}
}

func TestDiscardFreesPages(t *testing.T) {
	d := newTestDevice(t, testProfile())
	if err := d.WriteAt(bytes.Repeat([]byte{3}, 16384), 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Discard(0, 16384); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4096)
	if err := d.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 {
		t.Fatal("discarded page still has data")
	}
	if d.FTL().Utilisation() != 0 {
		t.Fatalf("utilisation = %v after full discard", d.FTL().Utilisation())
	}
}

func TestFlushOK(t *testing.T) {
	d := newTestDevice(t, testProfile())
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestHybridDeviceBuilds(t *testing.T) {
	d := newTestDevice(t, ProfileEMMC16().Scaled(512))
	if d.FTL().CacheChip() == nil {
		t.Fatal("hybrid profile built without cache chip")
	}
	if err := d.WriteAccounted(0, 4096); err != nil {
		t.Fatal(err)
	}
	if d.FTL().CacheChip().Stats().Programs == 0 {
		t.Fatal("small write bypassed hybrid cache on fresh device")
	}
}

func TestKindString(t *testing.T) {
	if KindEMMC.String() != "eMMC" || KindUFS.String() != "UFS" || KindUSD.String() != "uSD" {
		t.Fatal("Kind strings wrong")
	}
}

func TestBytesCounters(t *testing.T) {
	d := newTestDevice(t, testProfile())
	_ = d.WriteAccounted(0, 8192)
	_ = d.ReadAt(make([]byte, 4096), 0)
	if d.BytesWritten() != 8192 || d.BytesRead() != 4096 {
		t.Fatalf("counters: w=%d r=%d", d.BytesWritten(), d.BytesRead())
	}
}

func TestEffectiveScale(t *testing.T) {
	p := ProfileEMMC8()
	if eff := p.EffectiveScale(256); eff != 256 {
		t.Fatalf("EffectiveScale(256) = %d", eff)
	}
	// BLU 512MB clamps at 64 blocks (16 MiB): the effective divisor is
	// what was actually achieved, not what was asked.
	b := ProfileBLU512()
	eff := b.EffectiveScale(1 << 20)
	scaled := b.Scaled(1 << 20)
	if eff != b.CapacityBytes/scaled.CapacityBytes {
		t.Fatalf("eff %d inconsistent with scaled capacity %d", eff, scaled.CapacityBytes)
	}
	if eff >= 1<<20 {
		t.Fatal("clamp not reflected in effective scale")
	}
}

// TestWearHistogramTight buckets the main pool's per-block wear into ten
// equal-width bins over [0, maxWear]: with wear-leveling on, the bulk of
// blocks sit in the top bins (everyone equally worn).
func TestWearHistogramTight(t *testing.T) {
	d := newTestDevice(t, testProfile())
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 100_000; i++ {
		off := int64(rng.Intn(int(d.Size()/4096/8))) * 4096
		if err := d.WriteAccounted(off, 4096); err != nil {
			t.Fatal(err)
		}
	}
	chip := d.FTL().MainChip()
	blocks, maxW := chip.Geometry().Blocks(), chip.MaxWear()
	if maxW <= 0 {
		t.Fatal("no wear accumulated")
	}
	var h [10]int
	for b := 0; b < blocks; b++ {
		h[min(int(chip.Wear(b)/maxW*10), 9)]++
	}
	if top := h[8] + h[9]; top < blocks/2 {
		t.Fatalf("wear histogram too spread: top bins hold %d of %d", top, blocks)
	}
}

func TestHealingProfileBuilds(t *testing.T) {
	p := testProfile()
	p.HealPerIdleHour = 5
	d := newTestDevice(t, p)
	if err := d.WriteAccounted(0, 4096); err != nil {
		t.Fatal(err)
	}
}

// TestServiceTimeMatchesPlainExpression pins advance's service time,
// which skips zero terms, to the expression it replaces, for every profile
// and for random costs and transfers: both the busy time and the clock
// must step by exactly that much.
func TestServiceTimeMatchesPlainExpression(t *testing.T) {
	plain := func(d *Device, cost ftl.Cost, transfer int64) time.Duration {
		tm := d.prof.timing()
		w := time.Duration(d.prof.Parallelism)
		xfer := time.Duration(float64(transfer) / (d.prof.InterfaceMBps * 1e6) * float64(time.Second))
		flash := time.Duration(cost.Programs)*tm.ProgramPage/w +
			time.Duration(cost.Reads)*tm.ReadPage/w +
			time.Duration(cost.Erases)*tm.EraseBlock/w
		return d.prof.CmdOverhead + max(xfer, flash)
	}
	rng := rand.New(rand.NewSource(1))
	for _, prof := range AllProfiles() {
		d, err := New(prof.Scaled(4096), nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5000; i++ {
			cost := ftl.Cost{Programs: rng.Intn(200), Reads: rng.Intn(4) * rng.Intn(200), Erases: rng.Intn(2) * rng.Intn(8)}
			transfer := rng.Int63n(4 << 20)
			if i%5 == 0 {
				transfer = 0
			}
			busy, now := d.BusyTime(), d.clock.Now()
			d.advance(cost, transfer)
			want := plain(d, cost, transfer)
			if got := d.BusyTime() - busy; got != want {
				t.Fatalf("%s: advance(%+v, %d) added busy time %v, want %v", prof.Name, cost, transfer, got, want)
			}
			if got := d.clock.Now() - now; got != want {
				t.Fatalf("%s: advance(%+v, %d) stepped the clock %v, want %v", prof.Name, cost, transfer, got, want)
			}
		}
	}
}
