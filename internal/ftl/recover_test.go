package ftl

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"flashwear/internal/faultinject"
	"flashwear/internal/nand"
)

// faultyFTL builds an FTL whose chips share one fault injector, mirroring
// how device.New wires a per-device injector across the whole package.
func faultyFTL(t *testing.T, plan faultinject.Plan, hybrid bool) (*FTL, *faultinject.Injector) {
	t.Helper()
	inj := faultinject.New(plan, nil)
	cfg := Config{MainChip: testChipCfg(100_000)}
	cfg.MainChip.Seed = plan.Seed + 3
	cfg.MainChip.Inject = inj
	if hybrid {
		cfg.Hybrid = &HybridConfig{
			CacheChip: nand.Config{
				Geometry: nand.Geometry{
					Dies: 1, PlanesPerDie: 1, BlocksPerPlane: 4,
					PagesPerBlock: 16, PageSize: 4096,
				},
				Cell: nand.SLC, RatedPE: 100_000, Seed: plan.Seed + 4,
				Inject: inj,
			},
			DrainRatio:       0.25,
			MergeUtilisation: 0.8,
		}
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f, inj
}

// testCleanCutRecover is the deterministic half of the power-loss contract:
// after any amount of GC/wear-leveling/drain activity, cutting power and
// recovering reproduces every acknowledged write exactly, and the device
// keeps working afterwards.
func testCleanCutRecover(t *testing.T, hybrid bool) {
	f, _ := faultyFTL(t, faultinject.Plan{Seed: 7}, hybrid)
	n := f.LogicalPages()
	written := make(map[int]byte)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 3*n; i++ { // heavy overwrite: GC and drains must run
		lp := rng.Intn(n)
		v := byte(rng.Intn(255) + 1)
		req := 4096
		if hybrid && rng.Intn(3) == 0 {
			req = 1 << 20 // sometimes bypass the cache
		}
		if _, err := f.WritePage(lp, page(v, 4096), req); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		written[lp] = v
	}
	if _, err := f.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}

	f.CutPower()
	// Every host operation is refused while the device sits unpowered.
	if _, err := f.Flush(); !errors.Is(err, ErrPowerLoss) {
		t.Fatalf("Flush while down: %v, want ErrPowerLoss", err)
	}
	if _, _, err := f.ReadPage(0); !errors.Is(err, ErrPowerLoss) {
		t.Fatalf("ReadPage while down: %v, want ErrPowerLoss", err)
	}
	if _, err := f.WritePage(0, page(1, 4096), 4096); !errors.Is(err, ErrPowerLoss) {
		t.Fatalf("WritePage while down: %v, want ErrPowerLoss", err)
	}
	if _, err := f.TrimPage(0); !errors.Is(err, ErrPowerLoss) {
		t.Fatalf("TrimPage while down: %v, want ErrPowerLoss", err)
	}
	if !f.PowerLost() {
		t.Fatal("PowerLost() false after CutPower")
	}

	if _, err := f.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if f.Stats().Recoveries != 1 {
		t.Fatalf("Recoveries = %d, want 1", f.Stats().Recoveries)
	}
	for lp, v := range written {
		data, _, err := f.ReadPage(lp)
		if err != nil {
			t.Fatalf("read lp %d after recovery: %v", lp, err)
		}
		if data == nil || data[0] != v || data[4095] != v {
			t.Fatalf("lp %d: acknowledged value %#x lost after recovery", lp, v)
		}
	}
	// The recovered device keeps accepting work.
	if _, err := f.WritePage(1, page(0xEE, 4096), 4096); err != nil {
		t.Fatalf("write after recovery: %v", err)
	}
	data, _, err := f.ReadPage(1)
	if err != nil || data == nil || data[0] != 0xEE {
		t.Fatalf("read-back after recovery: %v %v", data, err)
	}
}

func TestRecoverCleanCut(t *testing.T)       { testCleanCutRecover(t, false) }
func TestRecoverCleanCutHybrid(t *testing.T) { testCleanCutRecover(t, true) }

// TestRecoverTrimResurrection pins the documented trim semantics: a trim is
// volatile, so if the stale flash copy has not yet been erased, a power cut
// deterministically resurrects the page with its old content.
func TestRecoverTrimResurrection(t *testing.T) {
	f := newTestFTL(t, nil)
	if _, err := f.WritePage(5, page(0xAB, 4096), 4096); err != nil {
		t.Fatal(err)
	}
	if _, err := f.TrimPage(5); err != nil {
		t.Fatal(err)
	}
	if data, _, err := f.ReadPage(5); err != nil || data != nil {
		t.Fatalf("trimmed page read %v, %v; want nil, nil", data, err)
	}
	f.CutPower()
	if _, err := f.Recover(); err != nil {
		t.Fatal(err)
	}
	data, _, err := f.ReadPage(5)
	if err != nil {
		t.Fatal(err)
	}
	if data == nil || data[0] != 0xAB {
		t.Fatalf("stale flash copy did not resurrect: %v", data)
	}
}

// runCrashWorkload drives one randomized crash/remount round: a mixed
// write/trim/read workload against an injector that cuts power on an op
// schedule and sprinkles transient read faults plus program faults. The
// invariant under test is the tentpole's acceptance bar — every
// acknowledged write survives every cut, and injected program/erase
// failures never surface as data loss. Trimmed pages are the one
// deliberate exception: trims are volatile, so after a cut they may
// resurrect, but only ever with a value that page actually held.
func runCrashWorkload(t *testing.T, seed int64, hybrid bool) (faultinject.Stats, Stats) {
	plan := faultinject.Plan{
		Seed:             seed,
		ReadFaultProb:    5e-4,
		ProgramFaultProb: 2e-4,
		EraseFaultProb:   5e-5,
		PowerCutEvery:    1499,
	}
	f, inj := faultyFTL(t, plan, hybrid)
	n := f.LogicalPages()
	model := make([]byte, n)            // acknowledged value per lp; 0 = unmapped
	history := make([]map[byte]bool, n) // every value each lp ever held
	rng := rand.New(rand.NewSource(seed))
	cuts := 0

	// audit sweeps the whole logical space against the model, resyncing
	// trimmed pages that resurrected. The sweep's own reads count against
	// the injector's op schedule, so it must survive further cuts itself.
	audit := func() {
		for lp := 0; lp < n; lp++ {
			var data []byte
			for {
				d, _, err := f.ReadPage(lp)
				if errors.Is(err, ErrPowerLoss) {
					inj.PowerRestored()
					if _, err := f.Recover(); err != nil {
						t.Fatalf("seed %d: recover during audit: %v", seed, err)
					}
					cuts++
					continue
				}
				if err != nil {
					t.Fatalf("seed %d: audit read lp %d: %v", seed, lp, err)
				}
				data = d
				break
			}
			if model[lp] != 0 {
				if data == nil || data[0] != model[lp] || data[len(data)-1] != model[lp] {
					t.Fatalf("seed %d: lp %d lost acknowledged value %#x after cut (got %v)",
						seed, lp, model[lp], data)
				}
				continue
			}
			if data == nil {
				continue // never written, or trim held
			}
			// A trimmed page resurrected. It must be internally consistent
			// and hold a value this page was actually once written with.
			if data[0] != data[len(data)-1] || history[lp] == nil || !history[lp][data[0]] {
				t.Fatalf("seed %d: lp %d resurrected with never-written content %#x",
					seed, lp, data[0])
			}
			model[lp] = data[0] // the resurrected copy is live again
		}
	}
	recoverNow := func() {
		inj.PowerRestored()
		if _, err := f.Recover(); err != nil {
			t.Fatalf("seed %d: recover: %v", seed, err)
		}
		cuts++
		audit()
	}

	buf := make([]byte, f.PageSize())
	eol := false
	for op := 0; op < 5000 && !eol; op++ {
		lp := rng.Intn(n)
		switch r := rng.Intn(10); {
		case r == 0: // trim
			_, err := f.TrimPage(lp)
			switch {
			case err == nil:
				model[lp] = 0
			case errors.Is(err, ErrPowerLoss):
				recoverNow()
			case errors.Is(err, ErrReadOnly):
				eol = true
			default:
				t.Fatalf("seed %d: trim: %v", seed, err)
			}
		case r <= 2: // read and check
			data, _, err := f.ReadPage(lp)
			switch {
			case errors.Is(err, ErrPowerLoss):
				recoverNow()
			case err != nil:
				t.Fatalf("seed %d: read: %v", seed, err)
			case model[lp] != 0 && (data == nil || data[0] != model[lp]):
				t.Fatalf("seed %d: lp %d reads %v, want %#x", seed, lp, data, model[lp])
			case model[lp] == 0 && data != nil:
				t.Fatalf("seed %d: trimmed lp %d readable while powered", seed, lp)
			}
		default: // write
			v := byte(rng.Intn(255) + 1)
			for i := range buf {
				buf[i] = v
			}
			req := len(buf)
			if hybrid && rng.Intn(4) == 0 {
				req = 1 << 20
			}
			_, err := f.WritePage(lp, buf, req)
			switch {
			case err == nil:
				model[lp] = v
				if history[lp] == nil {
					history[lp] = make(map[byte]bool)
				}
				history[lp][v] = true
			case errors.Is(err, ErrPowerLoss):
				recoverNow()
			case errors.Is(err, ErrReadOnly) || errors.Is(err, ErrBricked):
				eol = true
			default:
				t.Fatalf("seed %d: write: %v", seed, err)
			}
		}
	}
	audit() // final sweep, whatever state the run ended in
	if cuts == 0 {
		t.Fatalf("seed %d: no power cut fired; tighten PowerCutEvery", seed)
	}
	if got := f.Stats().Recoveries; got != int64(cuts) {
		t.Errorf("seed %d: Recoveries = %d, recovered %d times", seed, got, cuts)
	}
	return inj.Stats(), f.Stats()
}

// TestRecoverRandomizedPowerCuts is the fstest-style randomized suite over
// ≥6 seeds × {single-pool, hybrid}: repeated injected cuts at arbitrary
// points (mid-GC, mid-drain, mid-erase), each followed by recovery and a
// full audit of every acknowledged write.
func TestRecoverRandomizedPowerCuts(t *testing.T) {
	var inj faultinject.Stats
	var fs Stats
	for seed := int64(1); seed <= 6; seed++ {
		for _, hybrid := range []bool{false, true} {
			t.Run(fmt.Sprintf("seed=%d,hybrid=%v", seed, hybrid), func(t *testing.T) {
				is, s := runCrashWorkload(t, seed, hybrid)
				inj.ReadFaults += is.ReadFaults
				inj.ProgramFaults += is.ProgramFaults
				inj.PowerCuts += is.PowerCuts
				fs.ReadRetries += s.ReadRetries
				fs.ProgramRetries += s.ProgramRetries
			})
		}
	}
	// Across 12 runs the probabilistic faults must actually have fired and
	// been absorbed by the retry paths (per-run counts may be zero).
	if inj.PowerCuts == 0 || inj.ReadFaults == 0 || inj.ProgramFaults == 0 {
		t.Errorf("fault mix too thin to be meaningful: %+v", inj)
	}
	if fs.ReadRetries == 0 {
		t.Error("injected read faults never exercised firmware read-retry")
	}
	if fs.ProgramRetries == 0 {
		t.Error("injected program faults never exercised the re-program path")
	}
}

// TestProgramFailuresNeverLoseData injects a heavy program-failure rate and
// demands that the FTL's retry-on-fresh-page path absorbs every failure:
// all writes are acknowledged and all acknowledged data reads back.
func TestProgramFailuresNeverLoseData(t *testing.T) {
	for _, hybrid := range []bool{false, true} {
		t.Run(fmt.Sprintf("hybrid=%v", hybrid), func(t *testing.T) {
			f, inj := faultyFTL(t, faultinject.Plan{Seed: 3, ProgramFaultProb: 0.02}, hybrid)
			n := f.LogicalPages()
			model := make([]byte, n)
			rng := rand.New(rand.NewSource(3))
			for i := 0; i < 4*n; i++ {
				lp := rng.Intn(n)
				v := byte(rng.Intn(255) + 1)
				if _, err := f.WritePage(lp, page(v, 4096), 4096); err != nil {
					t.Fatalf("write %d: %v", i, err)
				}
				model[lp] = v
			}
			for lp, v := range model {
				if v == 0 {
					continue
				}
				data, _, err := f.ReadPage(lp)
				if err != nil || data == nil || data[0] != v {
					t.Fatalf("lp %d: want %#x, got %v (%v)", lp, v, data, err)
				}
			}
			if inj.Stats().ProgramFaults == 0 {
				t.Fatal("no program faults injected; the test exercised nothing")
			}
			if f.Stats().ProgramRetries == 0 {
				t.Fatal("program faults fired but the retry counter stayed zero")
			}
		})
	}
}

// TestGracefulEOLReadOnly drives the device to end of life via injected
// erase failures (each failed erase retires a block, so the spare pool
// drains fast) and pins the JEDEC-style read-only retirement contract.
func TestGracefulEOLReadOnly(t *testing.T) {
	f, inj := faultyFTL(t, faultinject.Plan{Seed: 5, EraseFaultProb: 0.5}, false)
	n := f.LogicalPages()
	model := make([]byte, n)
	rng := rand.New(rand.NewSource(5))
	var werr error
	for i := 0; i < 400*16; i++ {
		lp := rng.Intn(n)
		v := byte(rng.Intn(255) + 1)
		if _, err := f.WritePage(lp, page(v, 4096), 4096); err != nil {
			werr = err
			break
		}
		model[lp] = v
	}
	if werr == nil {
		t.Fatal("device never reached end of life under 50% erase failures")
	}
	if !errors.Is(werr, ErrReadOnly) {
		t.Fatalf("EOL error = %v, want ErrReadOnly", werr)
	}
	if !f.ReadOnly() || f.Bricked() || !f.Failed() {
		t.Fatalf("state after EOL: readOnly=%v bricked=%v failed=%v",
			f.ReadOnly(), f.Bricked(), f.Failed())
	}
	if inj.Stats().EraseFaults == 0 {
		t.Fatal("no erase faults injected")
	}
	if f.MainChip().Stats().BadBlocks == 0 {
		t.Fatal("erase failures retired no blocks")
	}
	// Read-only retirement keeps serving: every acknowledged write is
	// still readable, flushes still acknowledge, the wear registers say
	// "urgent" — but all mutation is refused.
	for lp, v := range model {
		if v == 0 {
			continue
		}
		data, _, err := f.ReadPage(lp)
		if err != nil || data == nil || data[0] != v {
			t.Fatalf("read-only device lost lp %d: %v (%v)", lp, data, err)
		}
	}
	if _, err := f.Flush(); err != nil {
		t.Fatalf("Flush on read-only device: %v, want nil", err)
	}
	if _, err := f.TrimPage(0); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("TrimPage on read-only device: %v, want ErrReadOnly", err)
	}
	if _, err := f.WritePage(0, page(1, 4096), 4096); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("WritePage on read-only device: %v, want ErrReadOnly", err)
	}
	if got := f.PreEOLInfo(); got != 3 {
		t.Fatalf("PreEOLInfo = %d, want 3 (urgent)", got)
	}
}

// TestBrickAtEOL pins the legacy behaviour the paper's BLU phones showed:
// with BrickAtEOL set, exhaustion hard-bricks instead of degrading.
func TestBrickAtEOL(t *testing.T) {
	inj := faultinject.New(faultinject.Plan{Seed: 5, EraseFaultProb: 0.5}, nil)
	cfg := Config{MainChip: testChipCfg(100_000), BrickAtEOL: true}
	cfg.MainChip.Inject = inj
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := f.LogicalPages()
	rng := rand.New(rand.NewSource(5))
	var werr error
	for i := 0; i < 400*16; i++ {
		if _, err := f.WritePage(rng.Intn(n), nil, 4096); err != nil {
			werr = err
			break
		}
	}
	if !errors.Is(werr, ErrBricked) {
		t.Fatalf("EOL error = %v, want ErrBricked", werr)
	}
	if !f.Bricked() || f.ReadOnly() {
		t.Fatalf("state after brick: bricked=%v readOnly=%v", f.Bricked(), f.ReadOnly())
	}
	if _, err := f.Flush(); !errors.Is(err, ErrBricked) {
		t.Fatalf("Flush on bricked device: %v, want ErrBricked", err)
	}
	if got := f.PreEOLInfo(); got != 3 {
		t.Fatalf("PreEOLInfo = %d, want 3", got)
	}
}

// BenchmarkWritePathFaultOverhead measures the cost of the fault hook on
// the FTL write path: baseline (no injector) versus an attached injector
// with an empty plan. The acceptance bar is <2% — the hook is a nil check
// when disabled and a counter bump plus a few compares when idle.
func BenchmarkWritePathFaultOverhead(b *testing.B) {
	run := func(b *testing.B, inject bool) {
		cfg := Config{MainChip: testChipCfg(100_000_000)}
		if inject {
			cfg.MainChip.Inject = faultinject.New(faultinject.Plan{}, nil)
		}
		f, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		n := f.LogicalPages() / 2 // half-full keeps GC steady, not thrashing
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := f.WritePage(i%n, nil, 4096); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("baseline", func(b *testing.B) { run(b, false) })
	b.Run("empty-plan", func(b *testing.B) { run(b, true) })
}
