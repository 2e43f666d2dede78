package ftl

import (
	"errors"
	"fmt"

	"flashwear/internal/nand"
	"flashwear/internal/wtrace"
)

// Errors surfaced to the host.
var (
	// ErrBricked means the device has failed permanently: it can no longer
	// service writes. This is the terminal state the paper drives phones
	// into.
	ErrBricked = errors.New("ftl: device is bricked")
	// ErrRange is returned for out-of-range logical pages.
	ErrRange = errors.New("ftl: logical page out of range")
	// ErrUnreadable is returned when a read hits an uncorrectable error.
	ErrUnreadable = errors.New("ftl: uncorrectable read")
	// ErrReadOnly means endurance is exhausted and the device has retired
	// into JEDEC-style read-only mode: writes and trims are refused, but
	// reads (and flushes) still succeed. This is the graceful sibling of
	// ErrBricked — how a well-behaved eMMC part ends its life.
	ErrReadOnly = errors.New("ftl: device is read-only (end of life)")
	// ErrPowerLoss means power dropped mid-operation. All volatile FTL
	// state is gone; the host must run Recover before issuing I/O.
	ErrPowerLoss = errors.New("ftl: power lost")
)

// Cost accumulates the raw flash work an operation caused. The device layer
// converts it to service time using the chip timings and the controller's
// internal parallelism.
type Cost struct {
	Programs int
	Reads    int
	Erases   int
}

// Add accumulates another cost.
func (c *Cost) Add(o Cost) {
	c.Programs += o.Programs
	c.Reads += o.Reads
	c.Erases += o.Erases
}

// Stats summarises FTL activity since creation.
type Stats struct {
	HostPagesWritten int64
	HostPagesRead    int64
	HostBytesWritten int64
	GCCopies         int64 // pages moved by main-pool garbage collection
	DrainMigrations  int64 // pages migrated cache -> main
	CacheAbsorbed    int64 // host pages absorbed by the cache pool
	CacheBypassed    int64 // small host pages that bypassed a full cache
	LostPages        int64 // pages lost to uncorrectable errors during GC
	MergeEvents      int64 // times the pools entered merged mode
	ReadRetries      int64 // extra reads issued after uncorrectable results
	ProgramRetries   int64 // pages re-programmed after program failures
	Recoveries       int64 // successful power-loss recoveries (remounts)
}

// FTL is a page-mapped flash translation layer over one or two NAND chips.
// It is not safe for concurrent use.
type FTL struct {
	cfg   Config
	main  *gcPool
	cache *cachePool
	maps  [2]*pageMap // each pool's page map by PoolID, nil for a missing pool

	pageSize     int
	logicalPages int

	l2p          []loc
	validLogical int64

	drainDebt float64
	merged    bool
	bricked   bool
	readOnly  bool
	powerLost bool

	// gseq is the global program sequence number stamped into per-page OOB
	// metadata; the live copy of a logical page is always the one with the
	// highest sequence, which is what power-loss recovery relies on.
	gseq int64

	// Fragmentation is O(blocks) to compute, so it is cached and
	// refreshed periodically.
	fragCached    float64
	fragCountdown int

	stats Stats

	// bestSeq and bestLoc are Recover's scan tables, kept between scans.
	bestSeq []int64
	bestLoc []loc

	// tr is the optional wear-attribution tracer (nil when tracing is
	// off, which must cost nothing but nil checks on the write path).
	tr *wtrace.Tracer
}

// New builds an FTL (and its chips) from cfg.
func New(cfg Config) (*FTL, error) {
	cfg.setDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	mainChip, err := nand.New(cfg.MainChip)
	if err != nil {
		return nil, fmt.Errorf("ftl: main chip: %w", err)
	}
	f := &FTL{cfg: cfg, pageSize: mainChip.Geometry().PageSize}

	userBlocks := int(float64(mainChip.Geometry().Blocks()) * (1 - cfg.OverProvision))
	if userBlocks < 1 {
		return nil, fmt.Errorf("ftl: geometry too small: %d user blocks", userBlocks)
	}
	f.logicalPages = userBlocks * mainChip.Geometry().PagesPerBlock
	f.l2p = make([]loc, f.logicalPages)
	f.main = newGCPool(PoolB, mainChip, &cfg)
	f.maps[PoolB] = &f.main.pageMap

	if cfg.Hybrid != nil {
		chip, err := nand.New(cfg.Hybrid.CacheChip)
		if err != nil {
			return nil, fmt.Errorf("ftl: cache chip: %w", err)
		}
		if chip.Geometry().PageSize != f.pageSize {
			return nil, fmt.Errorf("ftl: cache page size %d != main page size %d",
				chip.Geometry().PageSize, f.pageSize)
		}
		f.cache = newCachePool(chip)
		f.maps[PoolA] = &f.cache.pageMap
	}
	for _, m := range f.pageMaps() {
		m.gseq, m.stats, m.remap = &f.gseq, &f.stats, f.remap
	}
	f.format()
	return f, nil
}

// Reset prepares the FTL, chips included, to be handed to another device
// built from the same Config: the fault injector becomes inj (nil for
// none), and every counter and attribution tag starts from zero as in
// New. The chips keep their state for the caller to replace with
// ImportState and Reseed, and Recover, which the caller must run next,
// rebuilds the mapping from them.
func (f *FTL) Reset(inj nand.FaultInjector) {
	f.setInjector(inj)
	f.zeroCounters()
	f.powerLost = true
}

// Format prepares the FTL to be born again on its chips, which the caller
// has formatted (nand.Chip.Format): the fault injector becomes inj (nil
// for none), and the FTL is then as New leaves it over blank chips. It
// charges no scan and counts no recovery, unlike Recover. New runs the
// same initialisation.
func (f *FTL) Format(inj nand.FaultInjector) {
	f.setInjector(inj)
	f.format()
}

// format is New's initialisation over the chips as they stand, which on
// blank chips is a blank FTL.
func (f *FTL) format() {
	f.zeroCounters()
	f.dropVolatile()
	f.powerLost = false
}

func (f *FTL) setInjector(inj nand.FaultInjector) {
	for _, m := range f.pageMaps() {
		m.chip.SetInjector(inj)
	}
}

// zeroCounters zeroes the statistics and the attribution tags.
func (f *FTL) zeroCounters() {
	f.stats = Stats{}
	f.main.gcCopies, f.main.collects = 0, 0
	for _, m := range f.pageMaps() {
		clear(m.orgs)
	}
}

// SetTracer attaches (or, with nil, detaches) the wear-attribution
// tracer. It must be called before any I/O: the per-page origin arrays
// start empty, so wear already on the chips would be attributed to
// origin 0. Attribution state lives beside the reverse map and follows
// the same lifecycle (cleared on erase, rebuilt by Recover from OOB).
func (f *FTL) SetTracer(tr *wtrace.Tracer) {
	f.tr = tr
	if tr != nil {
		tr.SetPageSize(f.pageSize)
	}
	for _, m := range f.pageMaps() {
		m.tr, m.orgs = tr, nil
		if tr != nil {
			m.orgs = make([]wtrace.Origin, len(m.rmap))
		}
	}
}

// origin returns the ambient origin for a host write — who the current
// request is attributed to.
func (f *FTL) origin() wtrace.Origin {
	if f.tr == nil {
		return wtrace.OriginOS
	}
	return f.tr.Current()
}

// remap records a relocation decided inside a pool (GC, wear-leveling).
// l == noLoc means the page's data was lost to an uncorrectable error
// (pageMap.lose).
func (f *FTL) remap(lp int32, l loc) {
	if l == noLoc {
		if f.l2p[lp] != noLoc {
			f.l2p[lp] = noLoc
			f.validLogical--
			f.stats.LostPages++
		}
		return
	}
	f.l2p[lp] = l
}

// PageSize returns the logical page size in bytes.
func (f *FTL) PageSize() int { return f.pageSize }

// LogicalPages returns the number of exported logical pages.
func (f *FTL) LogicalPages() int { return f.logicalPages }

// Capacity returns the exported capacity in bytes.
func (f *FTL) Capacity() int64 { return int64(f.logicalPages) * int64(f.pageSize) }

// Utilisation returns the fraction of logical pages currently mapped.
func (f *FTL) Utilisation() float64 {
	return float64(f.validLogical) / float64(f.logicalPages)
}

// Bricked reports whether the device has failed permanently.
func (f *FTL) Bricked() bool { return f.bricked }

// ReadOnly reports whether the device has retired into read-only EOL mode.
func (f *FTL) ReadOnly() bool { return f.readOnly }

// Failed reports whether the device can no longer accept writes — either
// the graceful read-only retirement or the hard brick.
func (f *FTL) Failed() bool { return f.bricked || f.readOnly }

// PowerLost reports whether the FTL saw power drop; Recover clears it.
func (f *FTL) PowerLost() bool { return f.powerLost }

// enterEOL handles space exhaustion: graceful read-only retirement by
// default, the legacy hard brick when the profile asks for it (the paper's
// BLU phones). cause is the allocation failure that triggered it.
func (f *FTL) enterEOL(cause error) error {
	if f.cfg.BrickAtEOL {
		f.bricked = true
		return fmt.Errorf("%w: %v", ErrBricked, cause)
	}
	f.readOnly = true
	return fmt.Errorf("%w: %v", ErrReadOnly, cause)
}

// notePowerLoss latches the power-lost state and converts a chip-level
// power-loss error into the host-facing one.
func (f *FTL) notePowerLoss(cause error) error {
	f.powerLost = true
	return fmt.Errorf("%w: %w", ErrPowerLoss, cause)
}

// Merged reports whether the hybrid pools are operating as one (§4.3).
func (f *FTL) Merged() bool { return f.merged }

// Stats returns a snapshot of FTL counters.
func (f *FTL) Stats() Stats { return f.stats }

// RestoreStats overwrites the cumulative activity counters with s and the
// main pool's GC-copy counter with gcCopies — the checkpoint-resume
// counterpart to Recover, which rebuilds mapping state from the chips but
// cannot know how much host traffic the previous process had served.
// Restore before the post-import Recover call, so counters like
// Recoveries keep accumulating on top of the restored values.
func (f *FTL) RestoreStats(s Stats, gcCopies int64) {
	f.stats = s
	f.main.gcCopies = gcCopies
}

// MainChip exposes the Type B chip for wear inspection.
func (f *FTL) MainChip() *nand.Chip { return f.main.chip }

// CacheChip exposes the Type A chip, or nil for single-pool devices.
func (f *FTL) CacheChip() *nand.Chip {
	if f.cache == nil {
		return nil
	}
	return f.cache.chip
}

// pageMap returns the page map of the pool a location belongs to.
func (f *FTL) pageMap(id PoolID) *pageMap { return f.maps[id] }

// pageMaps returns the page maps the FTL has: the cache's, if any, then
// the main pool's.
func (f *FTL) pageMaps() []*pageMap {
	if f.cache == nil {
		return f.maps[PoolB:]
	}
	return f.maps[:]
}

// WriteAmplification returns total flash programs divided by host pages
// written, the metric §4.3 discusses under "Advanced Factors".
func (f *FTL) WriteAmplification() float64 {
	if f.stats.HostPagesWritten == 0 {
		return 0
	}
	var progs int64
	for _, m := range f.pageMaps() {
		progs += m.chip.Stats().Programs
	}
	return float64(progs) / float64(f.stats.HostPagesWritten)
}

// firmwareRated returns the rated-PE denominator the life-time indicator
// uses for a chip.
func (f *FTL) firmwareRated(chip *nand.Chip) float64 {
	if f.cfg.FirmwareRatedPE > 0 {
		return float64(f.cfg.FirmwareRatedPE)
	}
	return float64(chip.RatedPE())
}

// lifeConsumed returns the fraction of estimated lifetime consumed for a
// chip, as its firmware would estimate it from average erase counts.
func (f *FTL) lifeConsumed(chip *nand.Chip) float64 {
	var sum float64
	g := chip.Geometry()
	n := 0
	for b := 0; b < g.Blocks(); b++ {
		sum += float64(chip.EraseCount(b))
		n++
	}
	if n == 0 {
		return 1
	}
	return sum / float64(n) / f.firmwareRated(chip)
}

// WearIndicator returns the JEDEC-style 11-level life-time estimate for a
// pool: value n means (n-1)*10%..n*10% of estimated lifetime consumed; 11
// means the device exceeded its estimated lifetime (§4.3). Pool A on a
// single-pool device reports 1 (not used).
func (f *FTL) WearIndicator(pool PoolID) int {
	lvl := int(f.LifeConsumed(pool)*10) + 1
	if lvl < 1 {
		lvl = 1
	}
	if lvl > 11 {
		lvl = 11
	}
	return lvl
}

// LifeConsumed returns the raw consumed-lifetime fraction for a pool.
func (f *FTL) LifeConsumed(pool PoolID) float64 {
	if pool == PoolA {
		if f.cache == nil {
			return 0
		}
		return f.lifeConsumed(f.cache.chip)
	}
	return f.lifeConsumed(f.main.chip)
}

// PreEOLInfo mirrors the JEDEC PRE_EOL_INFO register: 1 = normal, 2 =
// warning (80% of reserved blocks consumed or life estimate past 80%),
// 3 = urgent.
func (f *FTL) PreEOLInfo() int {
	life := f.lifeConsumed(f.main.chip)
	switch {
	case f.bricked || f.readOnly || life >= 0.9:
		return 3
	case life >= 0.8:
		return 2
	default:
		return 1
	}
}

// rangeErr is the error for a logical page outside [0, LogicalPages). The
// host paths test uint(lp) < uint(f.logicalPages) in line, which is lp's
// range check in one compare, and call this only for a page that fails it.
func (f *FTL) rangeErr(lp int) error {
	return fmt.Errorf("%w: page %d of %d", ErrRange, lp, f.logicalPages)
}

// WritePage writes one logical page. data may be nil for accounting-only
// writes; otherwise it is at most a page, zero-extended to one. reqBytes is the size of the host request this page belongs to,
// which drives hybrid routing (small requests go through the cache).
func (f *FTL) WritePage(lp int, data []byte, reqBytes int) (Cost, error) {
	var cost Cost
	switch {
	case f.bricked:
		return cost, ErrBricked
	case f.readOnly:
		return cost, ErrReadOnly
	case f.powerLost:
		return cost, ErrPowerLoss
	}
	if uint(lp) >= uint(f.logicalPages) {
		return cost, f.rangeErr(lp)
	}
	if len(data) > f.pageSize {
		return cost, fmt.Errorf("ftl: WritePage: payload %d bytes, page %d", len(data), f.pageSize)
	}
	f.stats.HostPagesWritten++
	f.stats.HostBytesWritten += int64(f.pageSize)
	org := f.origin()
	if f.tr != nil {
		f.tr.NoteHostPage()
	}

	var newLoc loc
	var err error
	if f.cache != nil && f.cache.alive() && reqBytes <= routeMaxBytes {
		newLoc, err = f.writeViaCache(lp, data, &cost, org)
	} else {
		newLoc, err = f.main.program(int32(lp), data, &cost, false, streamHost, org, wtrace.CauseHost)
	}
	if err != nil {
		switch {
		case errors.Is(err, nand.ErrPowerLoss):
			return cost, f.notePowerLoss(err)
		case errors.Is(err, ErrNoSpace):
			return cost, f.enterEOL(err)
		}
		return cost, err
	}

	// Invalidate the previous copy *after* programming: GC during the
	// program may already have moved it, so consult the live map.
	if old := f.l2p[lp]; old != noLoc {
		f.pageMap(old.pool()).invalidate(old)
	} else {
		f.validLogical++
	}
	f.l2p[lp] = newLoc
	f.main.maybeStaticWL(&cost)
	return cost, nil
}

// Fragmentation returns the fraction of *live data* that co-resides with
// dead pages — the "fragmented" half of §4.3's merge condition. Writes into
// free space leave the bulk of stored data in clean blocks (low value);
// rewrites aimed at the utilised space punch holes into those blocks and
// push the value toward 1. The value is cached and refreshed every few
// thousand writes.
func (f *FTL) Fragmentation() float64 {
	if f.fragCountdown > 0 {
		f.fragCountdown--
		return f.fragCached
	}
	f.fragCountdown = 2048
	var validTotal, validInDirty int64
	for b, s := range f.main.state {
		if s != sFull {
			continue
		}
		v := int64(f.main.valid[b])
		validTotal += v
		if f.main.fill[b] > f.main.valid[b] {
			validInDirty += v // block holds dead (superseded) pages
		}
	}
	if validTotal == 0 {
		f.fragCached = 0
	} else {
		f.fragCached = float64(validInDirty) / float64(validTotal)
	}
	return f.fragCached
}

// writeViaCache routes a small write through the Type A pool, applying the
// drain policy and — at high utilisation and fragmentation — the
// merged-pool behaviour.
func (f *FTL) writeViaCache(lp int, data []byte, cost *Cost, org wtrace.Origin) (loc, error) {
	h := f.cfg.Hybrid
	wasMerged := f.merged
	f.merged = f.Utilisation() >= h.MergeUtilisation &&
		f.Fragmentation() >= mergeFragmentation
	if f.merged && !wasMerged {
		f.stats.MergeEvents++
	}

	if f.merged {
		// Merged mode: the cache absorbs all routed writes, draining as
		// hard as needed to make room (the firmware has combined the
		// pools into one storage space).
		for !f.cache.hasFreeSlot() && f.cache.content() {
			if err := f.drainOne(cost); err != nil {
				return noLoc, err
			}
		}
	} else if f.cache.utilisation() > drainWatermark {
		// Unmerged: background drain proceeds at the migration budget;
		// the cache absorbs the write only if it has room, else the
		// write bypasses straight to the main pool.
		f.drainDebt += h.DrainRatio
		for f.drainDebt >= 1 && f.cache.content() {
			f.drainDebt--
			if err := f.drainOne(cost); err != nil {
				return noLoc, err
			}
		}
	}
	if f.cache.hasFreeSlot() {
		l, err := f.cache.program(int32(lp), data, cost, org)
		if err == nil {
			f.stats.CacheAbsorbed++
			return l, nil
		}
		if !errors.Is(err, ErrNoSpace) {
			return noLoc, err
		}
		// Program-failure retries can eat the cache's last slots
		// mid-write; a full cache is a routing condition, not device
		// EOL — fall through to the main pool.
	}
	f.stats.CacheBypassed++
	return f.main.program(int32(lp), data, cost, false, streamHost, org, wtrace.CauseHost)
}

// drainOne advances the cache drain by one page, migrating it into the main
// pool if it is still live.
func (f *FTL) drainOne(cost *Cost) error {
	lp, data, org, err := f.cache.drainOne(cost)
	if err != nil {
		if errors.Is(err, nand.ErrPowerLoss) {
			return f.notePowerLoss(err)
		}
		return err
	}
	if lp < 0 {
		return nil // dead, lost or empty slot: nothing to migrate
	}
	// Live page: move to main, still owned by the origin that wrote it
	// into the cache — the drain migration is that origin's amplification.
	nl, err := f.main.program(lp, data, cost, false, streamHost, org, wtrace.CauseCache)
	if err != nil {
		switch {
		case errors.Is(err, nand.ErrPowerLoss):
			return f.notePowerLoss(err)
		case errors.Is(err, ErrNoSpace):
			return f.enterEOL(fmt.Errorf("during cache drain: %v", err))
		}
		return err
	}
	if old := f.l2p[lp]; old != noLoc {
		f.pageMap(old.pool()).invalidate(old)
	}
	f.l2p[lp] = nl
	f.stats.DrainMigrations++
	return nil
}

// ReadPage reads one logical page. Unmapped pages read as nil data with no
// flash work (the device returns zeroes). Accounting-only pages return nil
// data too. Data is lent by the chip (nand.Chip.ReadPage): it is read-only
// and valid until the next write, which may erase its block.
func (f *FTL) ReadPage(lp int) ([]byte, Cost, error) {
	var cost Cost
	if f.powerLost {
		return nil, cost, ErrPowerLoss
	}
	if uint(lp) >= uint(f.logicalPages) {
		return nil, cost, f.rangeErr(lp)
	}
	f.stats.HostPagesRead++
	l := f.l2p[lp]
	if l == noLoc {
		return nil, cost, nil
	}
	data, err := f.pageMap(l.pool()).read(l, &cost)
	if err != nil {
		if errors.Is(err, nand.ErrPowerLoss) {
			return nil, cost, f.notePowerLoss(err)
		}
		return nil, cost, fmt.Errorf("%w: page %d: %w", ErrUnreadable, lp, err)
	}
	return data, cost, nil
}

// TrimPage discards a logical page (like an SD/eMMC discard or FS trim).
func (f *FTL) TrimPage(lp int) (Cost, error) {
	var cost Cost
	switch {
	case f.readOnly:
		return cost, ErrReadOnly
	case f.powerLost:
		return cost, ErrPowerLoss
	}
	if uint(lp) >= uint(f.logicalPages) {
		return cost, f.rangeErr(lp)
	}
	if l := f.l2p[lp]; l != noLoc {
		f.pageMap(l.pool()).invalidate(l)
		f.l2p[lp] = noLoc
		f.validLogical--
	}
	return cost, nil
}

// Flush is a barrier; the simulated FTL has no volatile write cache, so it
// only reports zero cost. A read-only EOL device still acknowledges
// flushes (there is nothing buffered to lose), a bricked one does not.
func (f *FTL) Flush() (Cost, error) {
	if f.bricked {
		return Cost{}, ErrBricked
	}
	if f.powerLost {
		return Cost{}, ErrPowerLoss
	}
	return Cost{}, nil
}

// GCCopies returns the number of pages copied by main-pool GC (for write
// amplification breakdowns).
func (f *FTL) GCCopies() int64 { return f.main.gcCopies }
