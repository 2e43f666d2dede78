package ftl

import (
	"bytes"
	"math/rand"
	"testing"

	"flashwear/internal/faultinject"
	"flashwear/internal/nand"
)

// hybridFTL builds a hybrid FTL: a 4-block SLC cache in front of a 64-block
// MLC main pool.
func hybridFTL(t *testing.T, drainRatio, mergeUtil float64) *FTL {
	t.Helper()
	main := nand.Config{
		Geometry: nand.Geometry{
			Dies: 1, PlanesPerDie: 2, BlocksPerPlane: 32,
			PagesPerBlock: 16, PageSize: 4096,
		},
		Cell: nand.MLC, RatedPE: 50_000, Seed: 21,
	}
	cache := nand.Config{
		Geometry: nand.Geometry{
			Dies: 1, PlanesPerDie: 1, BlocksPerPlane: 6,
			PagesPerBlock: 16, PageSize: 4096,
		},
		Cell: nand.SLC, RatedPE: 200_000, Seed: 22,
	}
	f, err := New(Config{
		MainChip: main,
		Hybrid: &HybridConfig{
			CacheChip:        cache,
			DrainRatio:       drainRatio,
			MergeUtilisation: mergeUtil,
		},
	})
	if err != nil {
		t.Fatalf("New hybrid: %v", err)
	}
	return f
}

func TestHybridSmallWritesHitCacheFirst(t *testing.T) {
	f := hybridFTL(t, 0.1, 0.85)
	if _, err := f.WritePage(0, page(7, 4096), 4096); err != nil {
		t.Fatal(err)
	}
	if f.CacheChip().Stats().Programs != 1 {
		t.Fatalf("cache programs = %d, want 1", f.CacheChip().Stats().Programs)
	}
	if f.MainChip().Stats().Programs != 0 {
		t.Fatal("small write should not touch main pool yet")
	}
	got, _, err := f.ReadPage(0)
	if err != nil || !bytes.Equal(got, page(7, 4096)) {
		t.Fatalf("read back from cache failed: %v", err)
	}
}

func TestHybridLargeWritesBypassCache(t *testing.T) {
	f := hybridFTL(t, 0.1, 0.85)
	if _, err := f.WritePage(0, page(1, 4096), 512<<10); err != nil {
		t.Fatal(err)
	}
	if f.CacheChip().Stats().Programs != 0 {
		t.Fatal("large request leaked into the cache")
	}
	if f.MainChip().Stats().Programs != 1 {
		t.Fatalf("main programs = %d, want 1", f.MainChip().Stats().Programs)
	}
}

// TestHybridSustainedLoadAbsorbedFraction checks that under sustained small
// writes the cache absorbs approximately the drain-ratio fraction — the
// mechanism behind Table 1's Type A / Type B wear gap.
func TestHybridSustainedLoadAbsorbedFraction(t *testing.T) {
	drain := 0.10
	f := hybridFTL(t, drain, 10 /* never merge */)
	rng := rand.New(rand.NewSource(23))
	n := f.LogicalPages() / 2
	total := 60_000
	for i := 0; i < total; i++ {
		if _, err := f.WritePage(rng.Intn(n), nil, 4096); err != nil {
			t.Fatal(err)
		}
	}
	s := f.Stats()
	absorbed := float64(s.CacheAbsorbed) / float64(total)
	if absorbed < drain*0.5 || absorbed > drain*2.5 {
		t.Fatalf("absorbed fraction %.3f, want near drain ratio %.3f (stats %+v)",
			absorbed, drain, s)
	}
	// Cache wear per capacity should be well below main wear per capacity
	// only if rated accordingly; what must hold mechanically is that the
	// cache's programs are a small share of total.
	cacheProgs := f.CacheChip().Stats().Programs
	mainProgs := f.MainChip().Stats().Programs
	if cacheProgs*3 > mainProgs {
		t.Fatalf("cache programs %d not a small share of main %d", cacheProgs, mainProgs)
	}
}

// TestHybridMergeAcceleratesCacheWear fills the device past the merge
// utilisation and checks the cache starts absorbing everything (Table 1's
// Type A acceleration from 11935 GiB/increment to 439).
func TestHybridMergeAcceleratesCacheWear(t *testing.T) {
	f := hybridFTL(t, 0.05, 0.80)
	n := f.LogicalPages()
	// Fill 85% of the logical space with large (bypassing) writes.
	for lp := 0; lp < n*85/100; lp++ {
		if _, err := f.WritePage(lp, nil, 1<<20); err != nil {
			t.Fatal(err)
		}
	}
	if f.Merged() {
		t.Fatal("merged before any small write evaluated routing")
	}
	rng := rand.New(rand.NewSource(24))
	before := f.CacheChip().Stats().Programs
	beforeHost := f.Stats().HostPagesWritten
	for i := 0; i < 20_000; i++ {
		// Rewrites aimed at the utilised space (Table 1's last phase).
		if _, err := f.WritePage(rng.Intn(n*85/100), nil, 4096); err != nil {
			t.Fatal(err)
		}
	}
	if !f.Merged() {
		t.Fatal("pools did not merge at 85% utilisation")
	}
	if f.Stats().MergeEvents == 0 {
		t.Fatal("no merge events recorded")
	}
	absorbed := float64(f.CacheChip().Stats().Programs-before) /
		float64(f.Stats().HostPagesWritten-beforeHost)
	if absorbed < 0.5 {
		t.Fatalf("merged cache absorbed only %.2f of small writes, want most", absorbed)
	}
}

// TestHybridDrainPreservesData ensures pages migrated cache->main read back
// correctly after heavy churn.
func TestHybridDrainPreservesData(t *testing.T) {
	f := hybridFTL(t, 0.2, 10)
	// Write distinct payloads, then churn other pages to force drains.
	const keep = 20
	for lp := 0; lp < keep; lp++ {
		if _, err := f.WritePage(lp, page(byte(lp+1), 4096), 4096); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(25))
	for i := 0; i < 30_000; i++ {
		lp := keep + rng.Intn(f.LogicalPages()/2-keep)
		if _, err := f.WritePage(lp, nil, 4096); err != nil {
			t.Fatal(err)
		}
	}
	if f.Stats().DrainMigrations == 0 {
		t.Fatal("no drain migrations happened")
	}
	for lp := 0; lp < keep; lp++ {
		got, _, err := f.ReadPage(lp)
		if err != nil {
			t.Fatalf("page %d: %v", lp, err)
		}
		if !bytes.Equal(got, page(byte(lp+1), 4096)) {
			t.Fatalf("page %d corrupted after drain churn", lp)
		}
	}
}

// TestHybridTrimInCache trims a page whose only copy is in the cache.
func TestHybridTrimInCache(t *testing.T) {
	f := hybridFTL(t, 0.1, 10)
	if _, err := f.WritePage(0, page(9, 4096), 4096); err != nil {
		t.Fatal(err)
	}
	if _, err := f.TrimPage(0); err != nil {
		t.Fatal(err)
	}
	if got, _, _ := f.ReadPage(0); got != nil {
		t.Fatal("trimmed cache page still readable")
	}
}

func TestHybridWearIndicatorsIndependent(t *testing.T) {
	f := hybridFTL(t, 0.1, 10)
	if f.WearIndicator(PoolA) != 1 || f.WearIndicator(PoolB) != 1 {
		t.Fatal("fresh hybrid indicators should be 1/1")
	}
	if f.LifeConsumed(PoolA) != 0 {
		t.Fatal("fresh cache has consumed life")
	}
}

func TestHybridPageSizeMismatchRejected(t *testing.T) {
	main := testChipCfg(1000)
	cache := testChipCfg(1000)
	cache.Geometry.PageSize = 8192
	_, err := New(Config{MainChip: main, Hybrid: &HybridConfig{CacheChip: cache, DrainRatio: 0.1}})
	if err == nil {
		t.Fatal("mismatched page sizes accepted")
	}
}

// loseToDrain writes lp 0, then fails every read until the cache drain
// has tried to migrate it, so the drain loses it. It returns the cache
// block that held lp 0 and the last logical page written.
func loseToDrain(t *testing.T, f *FTL) (blk, lp int) {
	t.Helper()
	inj := faultinject.New(faultinject.Plan{}, nil)
	f.setInjector(inj)
	if _, err := f.WritePage(0, page(1, 4096), 4096); err != nil {
		t.Fatal(err)
	}
	blk = f.l2p[0].block()
	// Host writes read nothing until the drain starts, which scans the
	// ring from its tail: lp 0 is the first page it reads.
	inj.Reset(faultinject.Plan{ReadFaultProb: 1})
	for lp = 1; ; lp++ {
		cost, err := f.WritePage(lp, page(byte(lp%255+1), 4096), 4096)
		if err != nil {
			t.Fatal(err)
		}
		if cost.Reads > 0 {
			break
		}
	}
	inj.Reset(faultinject.Plan{})
	if err := checkMaps(f); err != nil {
		t.Fatalf("after the failed drain: %v", err)
	}
	if got := f.Stats().LostPages; got != 1 {
		t.Fatalf("LostPages = %d, want 1", got)
	}
	return blk, lp
}

// reuseCacheBlock writes after lp until the drain has erased cache block
// blk and the head has refilled it, and returns the last page written.
func reuseCacheBlock(t *testing.T, f *FTL, blk, lp int) int {
	t.Helper()
	erases := f.CacheChip().EraseCount(blk)
	for f.CacheChip().EraseCount(blk) == erases || f.CacheChip().ProgrammedPages(blk) == 0 {
		lp++
		if _, err := f.WritePage(lp, page(byte(lp%255+1), 4096), 4096); err != nil {
			t.Fatal(err)
		}
	}
	return lp
}

// TestHybridDrainLosesPageLikeGC: a cache page whose every read fails
// while the drain migrates it is lost the way GC loses one. Its logical
// page is unmapped and counted in LostPages, and it keeps reading as
// unmapped after its cache block is erased and holds other pages.
func TestHybridDrainLosesPageLikeGC(t *testing.T) {
	f := hybridFTL(t, 1, 10)
	blk, lp := loseToDrain(t, f)
	if data, _, err := f.ReadPage(0); data != nil || err != nil {
		t.Fatalf("lost page reads %d bytes, %v; want unmapped", len(data), err)
	}
	reuseCacheBlock(t, f, blk, lp)
	if err := checkMaps(f); err != nil {
		t.Fatalf("after the block was reused: %v", err)
	}
	if data, _, err := f.ReadPage(0); data != nil || err != nil {
		t.Fatalf("lost page reads %d bytes, %v after its block was reused; want unmapped", len(data), err)
	}
}

// TestLostPageMayResurrectAtRecover pins what a remount does with a lost
// page (DESIGN.md §8): like a trim, the loss is volatile. While the lost
// page's physical copy is not yet erased, its OOB record still holds the
// logical page's highest sequence, so Recover maps it again and it reads
// its old data; once the copy is erased it stays unmapped. Either way
// LostPages keeps counting the loss.
func TestLostPageMayResurrectAtRecover(t *testing.T) {
	remount := func(f *FTL) {
		t.Helper()
		f.CutPower()
		if _, err := f.Recover(); err != nil {
			t.Fatal(err)
		}
		if err := checkMaps(f); err != nil {
			t.Fatalf("after Recover: %v", err)
		}
		if got := f.Stats().LostPages; got != 1 {
			t.Fatalf("LostPages = %d after Recover, want 1", got)
		}
	}

	f := hybridFTL(t, 1, 10)
	loseToDrain(t, f)
	remount(f)
	if data, _, err := f.ReadPage(0); err != nil || !bytes.Equal(data, page(1, 4096)) {
		t.Fatalf("lost page with its copy unerased reads %d bytes, %v after Recover; want its old data", len(data), err)
	}

	f = hybridFTL(t, 1, 10)
	blk, lp := loseToDrain(t, f)
	reuseCacheBlock(t, f, blk, lp)
	remount(f)
	if data, _, err := f.ReadPage(0); data != nil || err != nil {
		t.Fatalf("lost page with its copy erased reads %d bytes, %v after Recover; want unmapped", len(data), err)
	}
}
