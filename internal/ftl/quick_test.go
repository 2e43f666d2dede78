package ftl

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"flashwear/internal/nand"
)

// TestQuickFTLMatchesModel drives random write/trim/read sequences against
// both the FTL and a trivial in-memory model, on single-pool and hybrid
// devices. The FTL must return exactly what the model predicts regardless
// of GC, wear-leveling, drains, or merges happening underneath, and after
// every op its own maps must agree with each other (checkMaps).
func TestQuickFTLMatchesModel(t *testing.T) {
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
		model := make(map[int]byte) // lp -> value byte; absent = unmapped
		rng := rand.New(rand.NewSource(seed))
		buf := make([]byte, 4096)
		for op := 0; op < 3000; op++ {
			if err := checkMaps(f); err != nil {
				t.Fatalf("seed %d, hybrid %v, before op %d: %v", seed, hybrid, op, err)
			}
			lp := rng.Intn(n)
			switch rng.Intn(10) {
			case 0: // trim
				if _, err := f.TrimPage(lp); err != nil {
					t.Fatalf("trim: %v", err)
				}
				delete(model, lp)
			case 1, 2: // read and check
				data, _, err := f.ReadPage(lp)
				if err != nil {
					t.Fatalf("read: %v", err)
				}
				want, mapped := model[lp]
				if !mapped {
					if data != nil {
						return false
					}
					continue
				}
				if data == nil || !bytes.Equal(data, bytes.Repeat([]byte{want}, 4096)) {
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
				if _, err := f.WritePage(lp, buf, reqBytes); err != nil {
					t.Fatalf("write: %v", err)
				}
				model[lp] = v
			}
		}
		if err := checkMaps(f); err != nil {
			t.Fatalf("seed %d, hybrid %v, after the last op: %v", seed, hybrid, err)
		}
		// Final sweep: every page must match the model.
		for lp := 0; lp < n; lp++ {
			data, _, err := f.ReadPage(lp)
			if err != nil {
				t.Fatalf("final read: %v", err)
			}
			want, mapped := model[lp]
			if !mapped {
				if data != nil {
					return false
				}
				continue
			}
			if data == nil || data[0] != want || data[4095] != want {
				return false
			}
		}
		return true
	}
	f := func(seed int64, hybrid bool) bool { return run(seed, hybrid) }
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
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

// poolMaps is one pool's view of the mapping, for checkMaps.
type poolMaps struct {
	id          PoolID
	ppb         int
	rmap, valid []int32
}

// checkMaps checks the FTL's maps against each other: l2p and each pool's
// rmap are exact inverses, validLogical counts the mapped pages, and each
// block's valid count equals its live rmap entries.
func checkMaps(f *FTL) error {
	pools := []poolMaps{{PoolB, f.main.ppb, f.main.rmap, f.main.valid}}
	if f.cache != nil {
		pools = append(pools, poolMaps{PoolA, f.cache.ppb, f.cache.rmap, f.cache.valid})
	}
	var mapped int64
	for lp, l := range f.l2p {
		if l == noLoc {
			continue
		}
		mapped++
		i := slices.IndexFunc(pools, func(p poolMaps) bool { return p.id == l.pool() })
		if i < 0 {
			return fmt.Errorf("lp %d maps to %v, a pool the FTL does not have", lp, l)
		}
		if got := pools[i].rmap[l.block()*pools[i].ppb+l.page()]; got != int32(lp) {
			return fmt.Errorf("lp %d maps to %v, whose rmap holds lp %d", lp, l, got)
		}
	}
	if f.validLogical != mapped {
		return fmt.Errorf("validLogical = %d, but %d pages are mapped", f.validLogical, mapped)
	}
	for _, p := range pools {
		for b, v := range p.valid {
			live := int32(0)
			for pg := 0; pg < p.ppb; pg++ {
				lp := p.rmap[b*p.ppb+pg]
				if lp < 0 {
					continue
				}
				live++
				if want := makeLoc(p.id, b, pg); f.l2p[lp] != want {
					return fmt.Errorf("%v holds lp %d in rmap, but l2p maps it to %v", want, lp, f.l2p[lp])
				}
			}
			if v != live {
				return fmt.Errorf("%v block %d: valid = %d, but rmap holds %d live pages", p.id, b, v, live)
			}
		}
	}
	return nil
}
