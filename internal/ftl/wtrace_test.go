package ftl

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"flashwear/internal/faultinject"
	"flashwear/internal/wtrace"
)

// checkWearIdentity pins the tentpole's accounting contract against ground
// truth: the ledger's per-origin rows must sum EXACTLY to what the FTL and
// the chips themselves counted — host pages to Stats.HostPagesWritten,
// physical programs to the chips' Programs, erases to the chips' Erases —
// and every row's phys_pages must equal its four cause columns summed.
// Integer equality, no tolerance: one double-counted or dropped program
// breaks the write-amplification decomposition.
func checkWearIdentity(t *testing.T, f *FTL) wtrace.Snapshot {
	t.Helper()
	snap := f.Tracer().Snapshot()
	tot := snap.Totals()
	if got, want := tot.HostPages, f.Stats().HostPagesWritten; got != want {
		t.Errorf("ledger host pages = %d, FTL counted %d", got, want)
	}
	programs := f.MainChip().Stats().Programs
	erases := f.MainChip().Stats().Erases
	if c := f.CacheChip(); c != nil {
		programs += c.Stats().Programs
		erases += c.Stats().Erases
	}
	if tot.PhysPages != programs {
		t.Errorf("ledger phys pages = %d, chips counted %d programs", tot.PhysPages, programs)
	}
	if tot.Erases != erases {
		t.Errorf("ledger erases = %d, chips counted %d", tot.Erases, erases)
	}
	for _, r := range snap.Rows {
		if causes := r.HostPrograms + r.GCPrograms + r.WLPrograms + r.CachePrograms; r.PhysPages != causes {
			t.Errorf("origin %q: phys_pages %d != cause sum %d", r.Origin, r.PhysPages, causes)
		}
		if r.PhysBytes != r.PhysPages*snap.PageSize {
			t.Errorf("origin %q: phys_bytes %d != phys_pages %d * page size %d",
				r.Origin, r.PhysBytes, r.PhysPages, snap.PageSize)
		}
	}
	return snap
}

// tracedFTL builds an FTL with a tracer attached at birth and two
// registered origins to split the workload across.
func tracedFTL(t *testing.T, mutate func(*Config)) (*FTL, *wtrace.Tracer, [2]wtrace.Origin) {
	t.Helper()
	f := newTestFTL(t, mutate)
	tr := wtrace.New()
	f.SetTracer(tr)
	return f, tr, [2]wtrace.Origin{tr.Origin("app.hot"), tr.Origin("app.cold")}
}

// TestWearIdentityPlain drives heavy random overwrite through GC on a
// single-pool FTL under two origins and checks the exact decomposition.
func TestWearIdentityPlain(t *testing.T) {
	f, tr, orgs := tracedFTL(t, nil)
	n := f.LogicalPages()
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 6*n; i++ {
		tr.SetOrigin(orgs[i%2])
		if _, err := f.WritePage(rng.Intn(n), nil, 4096); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	tr.SetOrigin(wtrace.OriginOS)
	snap := checkWearIdentity(t, f)
	tot := snap.Totals()
	if tot.GCPrograms == 0 {
		t.Fatal("no GC programs attributed; the workload never exercised GC")
	}
	if got, want := tot.GCPrograms+tot.WLPrograms, f.GCCopies(); got != want {
		t.Errorf("relocation programs %d != FTL GCCopies %d", got, want)
	}
	// Both app origins caused wear; "os" wrote nothing.
	for _, r := range snap.Rows {
		switch r.Origin {
		case "os":
			if r.HostPages != 0 {
				t.Errorf("os wrote %d host pages; all writes were tagged", r.HostPages)
			}
		default:
			if r.HostPages == 0 || r.PhysPages == 0 {
				t.Errorf("origin %q: host=%d phys=%d, want both > 0", r.Origin, r.HostPages, r.PhysPages)
			}
		}
	}
}

// TestWearIdentityHybrid adds the SLC cache: host writes land in the cache
// pool, drains migrate them to main (CauseCache), and the identity must
// hold across both chips.
func TestWearIdentityHybrid(t *testing.T) {
	f, tr, orgs := tracedFTL(t, func(c *Config) {
		c.Hybrid = &HybridConfig{
			CacheChip:        testChipCfg(100_000),
			DrainRatio:       0.25,
			MergeUtilisation: 0.9,
		}
		c.Hybrid.CacheChip.Geometry.BlocksPerPlane = 4
	})
	n := f.LogicalPages()
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 5*n; i++ {
		tr.SetOrigin(orgs[i%2])
		req := 4096
		if rng.Intn(4) == 0 {
			req = 1 << 20 // sometimes bypass the cache
		}
		if _, err := f.WritePage(rng.Intn(n), nil, req); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	tr.SetOrigin(wtrace.OriginOS)
	snap := checkWearIdentity(t, f)
	tot := snap.Totals()
	if tot.CachePrograms == 0 {
		t.Fatal("no cache-drain programs attributed; the cache never drained")
	}
	if f.Stats().DrainMigrations == 0 {
		t.Fatal("workload never exercised the drain path")
	}
}

// TestWearIdentityWearLeveling makes static wear-leveling fire — cold data
// parked by one origin, the other hammering a small hot set — and checks
// that WL relocations are attributed (to the cold data's owner) while the
// identity still holds.
func TestWearIdentityWearLeveling(t *testing.T) {
	f, tr, orgs := tracedFTL(t, nil)
	n := f.LogicalPages()
	// Cold origin writes the bottom half once and never touches it again.
	tr.SetOrigin(orgs[1])
	for lp := 0; lp < n/2; lp++ {
		if _, err := f.WritePage(lp, nil, 4096); err != nil {
			t.Fatal(err)
		}
	}
	// Hot origin rewrites a small window in the top half, driving the
	// erase-count spread past the threshold.
	tr.SetOrigin(orgs[0])
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 60*n; i++ {
		lp := n/2 + rng.Intn(n/8)
		if _, err := f.WritePage(lp, nil, 4096); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	tr.SetOrigin(wtrace.OriginOS)
	snap := checkWearIdentity(t, f)
	if snap.Totals().WLPrograms == 0 {
		t.Fatal("static wear-leveling never attributed a program; tighten the workload")
	}
	// The cold data is what WL relocates, so its owner gets the bill.
	for _, r := range snap.Rows {
		if r.Origin == "app.cold" && r.WLPrograms == 0 {
			t.Error("cold origin owns the parked data but was billed no WL programs")
		}
	}
}

// TestWearIdentityUnderFaults runs the recover suite's crash workload shape
// with tracing attached: injected program/erase faults and repeated power
// cuts, recovery rebuilding attribution from OOB. The identity must hold at
// the end because the ledger attributes exactly the operations the chips
// counted — including failed programs/erases, excluding cut ones.
func TestWearIdentityUnderFaults(t *testing.T) {
	for _, hybrid := range []bool{false, true} {
		t.Run(fmt.Sprintf("hybrid=%v", hybrid), func(t *testing.T) {
			plan := faultinject.Plan{
				Seed:             9,
				ProgramFaultProb: 2e-3,
				EraseFaultProb:   2e-4,
				PowerCutEvery:    1499,
			}
			f, inj := faultyFTL(t, plan, hybrid)
			tr := wtrace.New()
			f.SetTracer(tr)
			orgs := [2]wtrace.Origin{tr.Origin("a"), tr.Origin("b")}
			n := f.LogicalPages()
			rng := rand.New(rand.NewSource(9))
			cuts := 0
			for i := 0; i < 5000; i++ {
				tr.SetOrigin(orgs[i%2])
				req := 4096
				if hybrid && rng.Intn(4) == 0 {
					req = 1 << 20
				}
				_, err := f.WritePage(rng.Intn(n), nil, req)
				switch {
				case err == nil:
				case errors.Is(err, ErrPowerLoss):
					inj.PowerRestored()
					if _, err := f.Recover(); err != nil {
						t.Fatalf("recover: %v", err)
					}
					cuts++
				case errors.Is(err, ErrReadOnly) || errors.Is(err, ErrBricked):
					i = 5000
				default:
					t.Fatalf("write %d: %v", i, err)
				}
			}
			tr.SetOrigin(wtrace.OriginOS)
			if cuts == 0 {
				t.Fatal("no power cut fired; the test exercised nothing")
			}
			if inj.Stats().ProgramFaults == 0 {
				t.Fatal("no program faults fired")
			}
			checkWearIdentity(t, f)
		})
	}
}

// TestWearAttributionSurvivesRecovery pins the OOB round trip: attribution
// state must be rebuilt from flash, not RAM. Origins are registered, data
// written, power cut; after Recover, GC of the old blocks must still bill
// the origins that wrote the data.
func TestWearAttributionSurvivesRecovery(t *testing.T) {
	f, tr, orgs := tracedFTL(t, nil)
	idle := tr.Origin("app.idle") // registered but never writes
	n := f.LogicalPages()
	tr.SetOrigin(orgs[0])
	for lp := 0; lp < n; lp++ {
		if _, err := f.WritePage(lp, nil, 4096); err != nil {
			t.Fatal(err)
		}
	}
	tr.SetOrigin(wtrace.OriginOS)
	f.CutPower()
	if _, err := f.Recover(); err != nil {
		t.Fatal(err)
	}
	// Overwrite everything as the second origin: GC must erase blocks full
	// of the first origin's pre-cut pages, and by plurality those erases
	// bill the first origin — which only works if the OOB scan restored
	// the per-page origin tags.
	tr.SetOrigin(orgs[1])
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 4*n; i++ {
		if _, err := f.WritePage(rng.Intn(n), nil, 4096); err != nil {
			t.Fatal(err)
		}
	}
	tr.SetOrigin(wtrace.OriginOS)
	snap := checkWearIdentity(t, f)
	rows := map[string]wtrace.Row{}
	for _, r := range snap.Rows {
		rows[r.Origin] = r
	}
	_ = idle
	if r := rows["app.idle"]; r.HostPages != 0 || r.PhysPages != 0 || r.Erases != 0 {
		t.Errorf("idle origin billed: %+v", r)
	}
	if r := rows["app.hot"]; r.Erases == 0 {
		t.Error("origin whose pre-cut data was erased was billed no erases (OOB restore broken?)")
	}
}

// TestWearTracerDetach pins SetTracer(nil): the write path must keep
// working with attribution off, and the ledger must stop moving.
func TestWearTracerDetach(t *testing.T) {
	f, tr, orgs := tracedFTL(t, nil)
	tr.SetOrigin(orgs[0])
	if _, err := f.WritePage(0, nil, 4096); err != nil {
		t.Fatal(err)
	}
	f.SetTracer(nil)
	if f.Tracer() != nil {
		t.Fatal("Tracer() non-nil after detach")
	}
	before := tr.Snapshot().Totals()
	n := f.LogicalPages()
	for i := 0; i < 3*n; i++ {
		if _, err := f.WritePage(i%n, nil, 4096); err != nil {
			t.Fatalf("write with tracing off: %v", err)
		}
	}
	after := tr.Snapshot().Totals()
	if after != before {
		t.Fatalf("detached ledger moved: %+v -> %+v", before, after)
	}
}

// TestWritePathAllocFree pins the hot-path allocation contract from the
// wtrace package doc: the steady-state write path allocates nothing, with
// tracing off AND with a tracer attached (ledger counting is atomic adds;
// only the optional event buffer allocates, and it is off by default).
func TestWritePathAllocFree(t *testing.T) {
	for _, traced := range []bool{false, true} {
		t.Run(fmt.Sprintf("traced=%v", traced), func(t *testing.T) {
			f := newTestFTL(t, nil)
			if traced {
				tr := wtrace.New()
				f.SetTracer(tr)
				tr.SetOrigin(tr.Origin("app"))
			}
			n := f.LogicalPages() / 2
			// Reach GC steady state first so block churn is in the loop.
			for i := 0; i < 3*n; i++ {
				if _, err := f.WritePage(i%n, nil, 4096); err != nil {
					t.Fatal(err)
				}
			}
			i := 0
			avg := testing.AllocsPerRun(5000, func() {
				if _, err := f.WritePage(i%n, nil, 4096); err != nil {
					t.Fatal(err)
				}
				i++
			})
			if avg != 0 {
				t.Errorf("write path allocates %g objects/op, want 0", avg)
			}
		})
	}
}

// BenchmarkFTLWrite measures the attribution tax on the FTL write path:
//
//	bare           no tracer (the default; must stay within 2% of seed)
//	traced         ledger counting on, event buffer off (production shape)
//	traced-events  full Chrome event recording (debugging shape)
//
// Compare bare here against the seed's BenchmarkWritePathFaultOverhead/
// baseline — the disabled-tracer check is a branch on a nil pointer.
func BenchmarkFTLWrite(b *testing.B) {
	run := func(b *testing.B, attach func(*FTL) *wtrace.Tracer) {
		cfg := Config{MainChip: testChipCfg(100_000_000)}
		f, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if attach != nil {
			tr := attach(f)
			tr.SetOrigin(tr.Origin("app"))
		}
		n := f.LogicalPages() / 2 // half-full keeps GC steady, not thrashing
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := f.WritePage(i%n, nil, 4096); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("bare", func(b *testing.B) { run(b, nil) })
	b.Run("traced", func(b *testing.B) {
		run(b, func(f *FTL) *wtrace.Tracer {
			tr := wtrace.New()
			f.SetTracer(tr)
			return tr
		})
	})
	b.Run("traced-events", func(b *testing.B) {
		run(b, func(f *FTL) *wtrace.Tracer {
			tr := wtrace.New()
			tr.EnableEvents(1 << 30)
			f.SetTracer(tr)
			return tr
		})
	})
}
