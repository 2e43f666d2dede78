package ftl

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"flashwear/internal/faultinject"
	"flashwear/internal/nand"
	"flashwear/internal/wtrace"
)

// formatCfg is a small, short-lived FTL whose chips are seeded from seed
// (the main chip) and seed+1 (the cache, when hybrid), as device.New
// seeds them, sharing the injector inj.
func formatCfg(seed int64, hybrid bool, inj *faultinject.Injector) Config {
	cfg := Config{MainChip: testChipCfg(150)}
	cfg.MainChip.Seed = seed
	cfg.MainChip.Inject = inj
	if hybrid {
		cfg.Hybrid = &HybridConfig{
			CacheChip: nand.Config{
				Geometry: nand.Geometry{Dies: 1, PlanesPerDie: 1, BlocksPerPlane: 4, PagesPerBlock: 16, PageSize: 4096},
				Cell:     nand.SLC, RatedPE: 400, Seed: seed + 1, Inject: inj,
			},
			DrainRatio:       0.25,
			MergeUtilisation: 0.8,
		}
	}
	return cfg
}

// ftlScript drives a seeded mix of host writes (payload and
// accounting-only, small and cache-bypassing), reads, trims, flushes and
// power cuts, recovering after every cut, with the writes split between
// two tracer origins, and returns its transcript.
func ftlScript(f *FTL, inj *faultinject.Injector, seed int64, ops int) string {
	r := rand.New(rand.NewSource(seed))
	tr := f.tr
	orgs := [2]wtrace.Origin{tr.Origin("app.hot"), tr.Origin("app.cold")}
	n := f.LogicalPages()
	var out strings.Builder
	for i := 0; i < ops; i++ {
		lp := r.Intn(n)
		if r.Intn(4) != 0 {
			lp %= n / 4 // a hot quarter, so GC finds garbage
		}
		switch k := r.Intn(20); {
		case k < 12:
			var data []byte
			if r.Intn(3) != 0 {
				data = page(byte(i), f.PageSize())
			}
			req := 4096
			if r.Intn(4) == 0 {
				req = 1 << 20
			}
			tr.SetOrigin(orgs[k%2])
			cost, err := f.WritePage(lp, data, req)
			fmt.Fprintf(&out, "w%d %v %v|", lp, cost, err)
		case k < 17:
			data, cost, err := f.ReadPage(lp)
			fmt.Fprintf(&out, "r%d %v %v %d|", lp, cost, err, len(data))
			if len(data) > 0 {
				fmt.Fprintf(&out, "%d|", data[0])
			}
		case k < 18:
			cost, err := f.TrimPage(lp)
			fmt.Fprintf(&out, "t%d %v %v|", lp, cost, err)
		case k < 19:
			cost, err := f.Flush()
			fmt.Fprintf(&out, "f %v %v|", cost, err)
		default:
			f.CutPower()
		}
		if f.PowerLost() {
			inj.PowerRestored()
			cost, err := f.Recover()
			fmt.Fprintf(&out, "R %v %v|", cost, err)
		}
	}
	fmt.Fprintf(&out, "%+v %d %v %d %d", f.Stats(), f.GCCopies(), f.WriteAmplification(), f.WearIndicator(PoolB), f.WearIndicator(PoolA))
	return out.String()
}

// ftlState renders every structure the FTL keeps besides its chips and
// its scan scratch.
func ftlState(f *FTL) string {
	p := f.main
	s := fmt.Sprintf("%v %d %v %v %v %v %v %d %v %d %+v|", f.l2p, f.validLogical, f.drainDebt, f.merged, f.bricked,
		f.readOnly, f.powerLost, f.gseq, f.fragCached, f.fragCountdown, f.stats)
	s += fmt.Sprintf("%v %v %v %v %v %v %v %v %d %d %v %d %d %d %v %v|", p.state, p.valid, p.fill, p.seqNo, p.rmap,
		p.free, p.openBlk, p.openPage, p.seq, p.erasesSinceWL, p.collecting, p.relocating, p.gcCopies, p.collects,
		p.lostPower, p.orgs)
	if c := f.cache; c != nil {
		s += fmt.Sprintf("%v %d %d %d %d %d %v %v %v", c.ring, c.head, c.tail, c.used, c.headPage, c.tailPage,
			c.rmap, c.valid, c.orgs)
	}
	return s
}

// TestFormatEqualsNew is Format's oracle. An FTL worn into bad blocks by
// GC under read, program and erase faults and power cuts, traced, and
// with a chip state exported, is born again the way device.Rebirth bears
// one — injector reset, chips formatted, FTL formatted, tracer reset —
// and must then be indistinguishable from a new one: the same state,
// chip exports and counters, and the same transcript and ledger for one
// script after.
func TestFormatEqualsNew(t *testing.T) {
	plan := faultinject.Plan{Seed: 4, ReadFaultProb: 0.002, ProgramFaultProb: 0.002, EraseFaultProb: 0.01, PowerCutEvery: 1500}
	for _, hybrid := range []bool{false, true} {
		t.Run(fmt.Sprintf("hybrid=%v", hybrid), func(t *testing.T) {
			freshInj := faultinject.New(plan, nil)
			fresh, err := New(formatCfg(70, hybrid, freshInj))
			if err != nil {
				t.Fatal(err)
			}
			fresh.SetTracer(wtrace.New())

			inj := faultinject.New(faultinject.Plan{Seed: 9, ReadFaultProb: 0.01, ProgramFaultProb: 0.01,
				EraseFaultProb: 0.02, PowerCutEvery: 700}, nil)
			dirty, err := New(formatCfg(3, hybrid, inj))
			if err != nil {
				t.Fatal(err)
			}
			tr := wtrace.New()
			dirty.SetTracer(tr)
			ftlScript(dirty, inj, 1, 6000)
			dirty.MainChip().ExportState()
			if cc := dirty.CacheChip(); cc != nil {
				cc.ExportState()
			}
			ftlScript(dirty, inj, 2, 2000)
			st, bad := dirty.Stats(), dirty.MainChip().Stats()
			if st.GCCopies+dirty.GCCopies() == 0 || st.Recoveries == 0 || st.ReadRetries == 0 || st.ProgramRetries == 0 || bad.BadBlocks == 0 {
				t.Fatalf("the dirtying script missed a path: %+v, chip %+v", st, bad)
			}

			dirty.CutPower() // the device dies unpowered
			inj.Reset(plan)
			dirty.MainChip().Format(70)
			if cc := dirty.CacheChip(); cc != nil {
				cc.Format(71)
			}
			dirty.Format(inj)
			tr.Reset()

			if a, b := ftlState(fresh), ftlState(dirty); a != b {
				t.Fatalf("a formatted FTL differs from a new one:\nnew       %.300s\nformatted %.300s", a, b)
			}
			for round := int64(0); round < 3; round++ {
				if a, b := ftlScript(fresh, freshInj, 10+round, 3000), ftlScript(dirty, inj, 10+round, 3000); a != b {
					t.Fatalf("round %d: the script runs differently on a formatted FTL", round)
				}
				if a, b := ftlState(fresh), ftlState(dirty); a != b {
					t.Fatalf("round %d: the state after the script differs", round)
				}
				if !reflect.DeepEqual(fresh.MainChip().ExportState(), dirty.MainChip().ExportState()) {
					t.Fatalf("round %d: the main chips differ", round)
				}
				if hybrid && !reflect.DeepEqual(fresh.CacheChip().ExportState(), dirty.CacheChip().ExportState()) {
					t.Fatalf("round %d: the cache chips differ", round)
				}
				if a, b := fresh.tr.Snapshot(), tr.Snapshot(); !reflect.DeepEqual(a, b) {
					t.Fatalf("round %d: ledger %+v new, %+v formatted", round, a, b)
				}
			}
		})
	}
}
