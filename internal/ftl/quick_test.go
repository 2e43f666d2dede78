package ftl

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"flashwear/internal/faultinject"
	"flashwear/internal/nand"
)

// TestQuickFTLMatchesModel drives random write/trim/read sequences against
// both the FTL and a trivial in-memory model, on single-pool and hybrid
// devices whose chips fail reads, programs and erases at random. The FTL
// must return exactly what the model predicts regardless of GC,
// wear-leveling, drains, merges or faults happening underneath, and after
// every op its own maps must agree with each other (checkMaps). Faults
// bend the model in two specified ways only: a host read may fail as an
// uncorrectable ErrUnreadable (the data underneath is intact, so the
// final sweep, retrying, must still read it), and a page whose every read
// failed while GC, wear-leveling or the drain moved it reads as unmapped
// — which the model accepts only for as many pages as LostPages counts.
// A device that runs out of good blocks retires read-only, and from then
// on its reads must still match.
func TestQuickFTLMatchesModel(t *testing.T) {
	var faults faultinject.Stats
	var lost int64
	run := func(seed int64, hybrid bool) bool {
		inj := faultinject.New(faultinject.Plan{Seed: seed, ReadFaultProb: 0.1,
			ProgramFaultProb: 0.01, EraseFaultProb: 0.002}, nil)
		var cfg Config
		cfg.MainChip = nand.Config{
			Geometry: nand.Geometry{
				Dies: 1, PlanesPerDie: 2, BlocksPerPlane: 12,
				PagesPerBlock: 8, PageSize: 4096,
			},
			Cell: nand.MLC, RatedPE: 100_000, Seed: seed, Inject: inj,
		}
		if hybrid {
			cfg.Hybrid = &HybridConfig{
				CacheChip: nand.Config{
					Geometry: nand.Geometry{
						Dies: 1, PlanesPerDie: 1, BlocksPerPlane: 4,
						PagesPerBlock: 8, PageSize: 4096,
					},
					Cell: nand.SLC, RatedPE: 100_000, Seed: seed + 1, Inject: inj,
				},
				DrainRatio:       0.25,
				MergeUtilisation: 0.8,
			}
		}
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			s := inj.Stats()
			faults.ReadFaults += s.ReadFaults
			faults.ProgramFaults += s.ProgramFaults
			faults.EraseFaults += s.EraseFaults
			lost += f.Stats().LostPages
		}()
		n := f.LogicalPages()
		model := make(map[int]byte) // lp -> value byte; absent = unmapped
		var unmapped int64          // model pages that read back unmapped
		// read checks one page against the model; false means a mismatch.
		// In a schedule an uncorrectable read passes: the fault is
		// transient and the data underneath intact. The final sweep
		// retries it, and a page still unreadable after 20 reads (each
		// behind the FTL's own retries) is a defect, not an injected fault.
		read := func(lp int, final bool) bool {
			data, _, err := f.ReadPage(lp)
			for try := 1; final && try < 20 && errors.Is(err, nand.ErrUncorrectable); try++ {
				data, _, err = f.ReadPage(lp)
			}
			if errors.Is(err, ErrUnreadable) && errors.Is(err, nand.ErrUncorrectable) {
				if final {
					t.Fatalf("seed %d, hybrid %v: lp %d unreadable after 20 reads: %v", seed, hybrid, lp, err)
				}
				return true
			}
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			want, mapped := model[lp]
			if mapped && data == nil {
				unmapped++
				if unmapped > f.Stats().LostPages {
					t.Fatalf("seed %d, hybrid %v: lp %d reads unmapped, but LostPages = %d accounts for %d such pages",
						seed, hybrid, lp, f.Stats().LostPages, unmapped-1)
				}
				delete(model, lp)
				return true
			}
			if !mapped {
				return data == nil
			}
			return bytes.Equal(data, bytes.Repeat([]byte{want}, 4096))
		}
		buf := make([]byte, 4096)
		rng := rand.New(rand.NewSource(seed))
		for op := 0; op < 3000; op++ {
			if err := checkMaps(f); err != nil {
				t.Fatalf("seed %d, hybrid %v, before op %d: %v", seed, hybrid, op, err)
			}
			lp := rng.Intn(n)
			switch rng.Intn(10) {
			case 0: // trim
				if _, err := f.TrimPage(lp); err == nil {
					delete(model, lp)
				} else if !f.ReadOnly() {
					t.Fatalf("trim: %v", err)
				}
			case 1, 2: // read and check
				if !read(lp, false) {
					return false
				}
			default: // write
				v := byte(rng.Intn(255) + 1)
				for i := range buf {
					buf[i] = v
				}
				reqBytes := 4096
				if rng.Intn(4) == 0 {
					reqBytes = 1 << 20 // sometimes bypass the cache
				}
				if _, err := f.WritePage(lp, buf, reqBytes); err == nil {
					model[lp] = v
				} else if !errors.Is(err, ErrReadOnly) {
					t.Fatalf("write: %v", err)
				}
			}
		}
		if err := checkMaps(f); err != nil {
			t.Fatalf("seed %d, hybrid %v, after the last op: %v", seed, hybrid, err)
		}
		// Final sweep: every page must match the model.
		for lp := 0; lp < n; lp++ {
			if !read(lp, true) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(run, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
	// A fault that never fires tests nothing.
	if faults.ReadFaults == 0 || faults.ProgramFaults == 0 || faults.EraseFaults == 0 || lost == 0 {
		t.Fatalf("faults %+v and %d lost pages over all schedules; want each > 0", faults, lost)
	}
}

// TestQuickWearMonotonic: however the FTL is driven, life consumed never
// decreases and the indicator never runs backwards.
func TestQuickWearMonotonic(t *testing.T) {
	f := func(seed int64) bool {
		ftl := newTestFTL(t, func(c *Config) {
			c.MainChip = testChipCfg(500)
			c.MainChip.Seed = seed
		})
		rng := rand.New(rand.NewSource(seed))
		lastLife := 0.0
		lastInd := 0
		for i := 0; i < 4000; i++ {
			if _, err := ftl.WritePage(rng.Intn(ftl.LogicalPages()/4), nil, 4096); err != nil {
				return true // death is allowed; monotonicity checked until then
			}
			if life := ftl.LifeConsumed(PoolB); life < lastLife {
				return false
			} else {
				lastLife = life
			}
			if ind := ftl.WearIndicator(PoolB); ind < lastInd {
				return false
			} else {
				lastInd = ind
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRemountMatchesModel interleaves clean power cuts and OOB-scan
// recoveries into a random write/read workload: the remounted FTL must
// behave exactly like one that never lost power, and its maps — rebuilt
// from the OOB scan — must agree with each other after every op and every
// remount (checkMaps). Writes and reads only — trims are volatile by
// contract, so they would make the model ambiguous.
func TestQuickRemountMatchesModel(t *testing.T) {
	run := func(seed int64, hybrid bool) bool {
		var cfg Config
		cfg.MainChip = nand.Config{
			Geometry: nand.Geometry{
				Dies: 1, PlanesPerDie: 2, BlocksPerPlane: 12,
				PagesPerBlock: 8, PageSize: 4096,
			},
			Cell: nand.MLC, RatedPE: 100_000, Seed: seed,
		}
		if hybrid {
			cfg.Hybrid = &HybridConfig{
				CacheChip: nand.Config{
					Geometry: nand.Geometry{
						Dies: 1, PlanesPerDie: 1, BlocksPerPlane: 4,
						PagesPerBlock: 8, PageSize: 4096,
					},
					Cell: nand.SLC, RatedPE: 100_000, Seed: seed + 1,
				},
				DrainRatio:       0.25,
				MergeUtilisation: 0.8,
			}
		}
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n := f.LogicalPages()
		model := make(map[int]byte)
		rng := rand.New(rand.NewSource(seed))
		buf := make([]byte, 4096)
		remounts := 0
		for op := 0; op < 2000; op++ {
			if err := checkMaps(f); err != nil {
				t.Fatalf("seed %d, hybrid %v, before op %d: %v", seed, hybrid, op, err)
			}
			if op%137 == 136 {
				f.CutPower()
				if _, err := f.Recover(); err != nil {
					t.Fatalf("recover: %v", err)
				}
				remounts++
				if err := checkMaps(f); err != nil {
					t.Fatalf("seed %d, hybrid %v, after remount %d: %v", seed, hybrid, remounts, err)
				}
			}
			lp := rng.Intn(n)
			if rng.Intn(4) == 0 { // read and check
				data, _, err := f.ReadPage(lp)
				if err != nil {
					t.Fatalf("read: %v", err)
				}
				want, mapped := model[lp]
				if mapped != (data != nil) || (mapped && data[0] != want) {
					return false
				}
				continue
			}
			v := byte(rng.Intn(255) + 1)
			for i := range buf {
				buf[i] = v
			}
			reqBytes := 4096
			if rng.Intn(4) == 0 {
				reqBytes = 1 << 20
			}
			if _, err := f.WritePage(lp, buf, reqBytes); err != nil {
				t.Fatalf("write: %v", err)
			}
			model[lp] = v
		}
		if err := checkMaps(f); err != nil {
			t.Fatalf("seed %d, hybrid %v, after the last op: %v", seed, hybrid, err)
		}
		if remounts == 0 || f.Stats().Recoveries != int64(remounts) {
			t.Fatalf("remounts = %d, Recoveries = %d", remounts, f.Stats().Recoveries)
		}
		for lp := 0; lp < n; lp++ {
			data, _, err := f.ReadPage(lp)
			if err != nil {
				t.Fatalf("final read: %v", err)
			}
			want, mapped := model[lp]
			if mapped != (data != nil) || (mapped && (data[0] != want || data[4095] != want)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(run, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickUtilisationBounded: utilisation tracks mapped pages exactly and
// stays in [0, 1].
func TestQuickUtilisationBounded(t *testing.T) {
	f := func(seed int64) bool {
		ftl := newTestFTL(t, nil)
		rng := rand.New(rand.NewSource(seed))
		mapped := map[int]bool{}
		n := ftl.LogicalPages()
		for i := 0; i < 2000; i++ {
			lp := rng.Intn(n)
			if rng.Intn(3) == 0 {
				if _, err := ftl.TrimPage(lp); err != nil {
					return false
				}
				delete(mapped, lp)
			} else {
				if _, err := ftl.WritePage(lp, nil, 4096); err != nil {
					return false
				}
				mapped[lp] = true
			}
			want := float64(len(mapped)) / float64(n)
			got := ftl.Utilisation()
			if got < want-1e-9 || got > want+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// checkMaps checks the FTL's maps against each other: l2p and each pool's
// page map are exact inverses, validLogical counts the mapped pages, and
// each block's valid count equals its live rmap entries.
func checkMaps(f *FTL) error {
	var mapped int64
	for lp, l := range f.l2p {
		if l == noLoc {
			continue
		}
		mapped++
		if int(l.pool()) >= len(f.maps) || f.maps[l.pool()] == nil {
			return fmt.Errorf("lp %d maps to %v, a pool the FTL does not have", lp, l)
		}
		m := f.maps[l.pool()]
		if got := m.rmap[l.block()*m.ppb+l.page()]; got != int32(lp) {
			return fmt.Errorf("lp %d maps to %v, whose rmap holds lp %d", lp, l, got)
		}
	}
	if f.validLogical != mapped {
		return fmt.Errorf("validLogical = %d, but %d pages are mapped", f.validLogical, mapped)
	}
	for _, m := range f.pageMaps() {
		for b, v := range m.valid {
			live := int32(0)
			for pg := 0; pg < m.ppb; pg++ {
				lp := m.rmap[b*m.ppb+pg]
				if lp < 0 {
					continue
				}
				live++
				if want := makeLoc(m.id, b, pg); f.l2p[lp] != want {
					return fmt.Errorf("%v holds lp %d in rmap, but l2p maps it to %v", want, lp, f.l2p[lp])
				}
			}
			if v != live {
				return fmt.Errorf("%v block %d: valid = %d, but rmap holds %d live pages", m.id, b, v, live)
			}
		}
	}
	return nil
}
