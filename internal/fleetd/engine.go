package fleetd

import (
	"fmt"
	"sync"
	"time"

	"flashwear/internal/faultinject"
	"flashwear/internal/fleet"
	"flashwear/internal/ftl"
	"flashwear/internal/nand"
	"flashwear/internal/report"
	"flashwear/internal/simclock"
	"flashwear/internal/wtrace"
)

// deviceState is one device's complete persistent state at a simulated
// day boundary — everything a checkpoint must carry to reboot the device
// into an indistinguishable stack. Volatile state (FTL mapping tables,
// pool free lists, file-system caches) is deliberately absent: the boot
// path rebuilds it through the same OOB-scan recovery a power loss takes,
// which is what makes the capture small and the restore honest.
type deviceState struct {
	Index    int
	DaysDone int
	// Now is the device's simulated clock at capture; WorkStart is the
	// clock after first-boot setup, the zero point of the day grid.
	Now       time.Duration
	WorkStart time.Duration
	// Cumulative host-side counters (the fresh stack must keep reporting
	// lifetime totals).
	BytesWritten int64
	BytesRead    int64
	Busy         time.Duration
	// FSWrites is the workload's cumulative rewrite count (its SyncEvery
	// phase).
	FSWrites int
	// FTL cumulative counters. GCCopies rides separately because the FTL
	// tracks it next to the pool, not in Stats; the codec carries this
	// slot and skips the always-zero FTLStats.GCCopies.
	FTLStats ftl.Stats
	GCCopies int64
	// Ledger is the cumulative unscaled wear-attribution snapshot across
	// all previous boots (zero-valued when tracing is off). Scaling to
	// full-scale volumes happens only at fold points.
	Ledger wtrace.Snapshot
	// Main and Cache are the chips' persistent states; Cache is nil for
	// devices without an SLC cache chip.
	Main  *nand.ChipState
	Cache *nand.ChipState
}

// liveDev is a booted fleet.Phone — the transient counterpart of a
// deviceState, alive for exactly one simulated day — plus what fleetd
// carries for it across the nightly reboots.
type liveDev struct {
	*fleet.Phone
	// prevLedger is the unscaled ledger accumulated before this boot.
	prevLedger wtrace.Snapshot
}

// dayPlan derives the fault plan for one device-day: re-seeded by
// (plan seed, device seed, day) and filtered of time cuts the previous
// boots already fired. nil when the spec injects nothing.
func dayPlan(spec fleet.Spec, p fleet.Params, day int, after time.Duration) *faultinject.Plan {
	if spec.Faults == nil || spec.Faults.Empty() {
		return nil
	}
	plan := spec.Faults.WithSeed(fleet.MixSeed(spec.Faults.Seed+p.Seed, int64(day))).After(after)
	return &plan
}

// birth runs a device's first boot on day 0's plan. The clock after setup
// anchors the device's day grid. The second return is true when wear or
// faults kill the device before setup completes (a death, not an error).
func birth(spec fleet.Spec, p fleet.Params) (*liveDev, bool, error) {
	ph, err := fleet.NewPhone(spec, p, dayPlan(spec, p, 0, 0), simclock.New())
	if err != nil {
		return nil, false, err
	}
	died, err := ph.FirstBoot()
	return &liveDev{Phone: ph}, died, err
}

// boot rebuilds a device stack from a captured state: fresh stack, chip
// state imported, RNG streams re-keyed by (seed, day) — so post-resume
// behaviour is a pure function of the resume point, not of how many draws
// the previous process consumed — then Phone.Reboot. The second return is
// true when the device cannot boot (wear killed it between days): that is
// a death, not an error, and it is deterministic because every run passes
// through this same boot at this same boundary.
func boot(spec fleet.Spec, p fleet.Params, st *deviceState) (*liveDev, bool, error) {
	day := int64(st.DaysDone)
	clock := simclock.New()
	clock.Advance(st.Now)
	ph, err := fleet.NewPhone(spec, p, dayPlan(spec, p, st.DaysDone, st.Now), clock)
	if err != nil {
		return nil, false, err
	}
	f := ph.Dev.FTL()
	if err := f.MainChip().ImportState(st.Main); err != nil {
		return nil, false, fmt.Errorf("fleetd: device %d: %w", p.Index, err)
	}
	chipSeed := fleet.MixSeed(p.Seed, day)
	f.MainChip().Reseed(chipSeed)
	if cc := f.CacheChip(); cc != nil {
		if st.Cache == nil {
			return nil, false, fmt.Errorf("fleetd: device %d: state has no cache chip", p.Index)
		}
		if err := cc.ImportState(st.Cache); err != nil {
			return nil, false, fmt.Errorf("fleetd: device %d: %w", p.Index, err)
		}
		cc.Reseed(chipSeed + 1)
	}
	f.RestoreStats(st.FTLStats, st.GCCopies)
	ph.Dev.RestoreCounters(st.BytesWritten, st.BytesRead, st.Busy)
	ld := &liveDev{Phone: ph}
	ld.prevLedger.Merge(st.Ledger)
	died, err := ph.Reboot(st.WorkStart, st.FSWrites, fleet.MixSeed(p.Seed+1, day))
	return ld, died, err
}

// runDay drives the workload until the device's day-(day+1) boundary. The
// day grid is integer nanoseconds on the scaled clock — day k ends at
// workStart + ((k+1) * nsPerDay) / scale — so the boundary is a pure
// function of (spec, device), never of float accumulation.
func (ld *liveDev) runDay(day int) (died bool, err error) {
	dayEnd := ld.WorkStart() + time.Duration((int64(day+1)*nsPerDay)/ld.Scale)
	return ld.RunUntil(dayEnd, nil)
}

// cumLedger is the device's lifetime unscaled ledger: everything captured
// before this boot plus this boot's tracer.
func (ld *liveDev) cumLedger() wtrace.Snapshot {
	var s wtrace.Snapshot
	s.Merge(ld.prevLedger)
	s.Merge(ld.Ledger())
	return s
}

// scaledLedger is cumLedger at full-scale volumes.
func (ld *liveDev) scaledLedger() wtrace.Snapshot {
	s := ld.cumLedger()
	s.Scale(ld.Scale)
	return s
}

// capture exports the device's persistent state at a day boundary. Pure
// reads: the live stack is discarded afterwards, never resumed.
func (ld *liveDev) capture(daysDone int) *deviceState {
	f := ld.Dev.FTL()
	st := &deviceState{
		Index:        ld.Params.Index,
		DaysDone:     daysDone,
		Now:          ld.Clock.Now(),
		WorkStart:    ld.WorkStart(),
		BytesWritten: ld.Dev.BytesWritten(),
		BytesRead:    ld.Dev.BytesRead(),
		Busy:         ld.Dev.BusyTime(),
		FSWrites:     ld.Writes(),
		FTLStats:     f.Stats(),
		GCCopies:     f.GCCopies(),
		Ledger:       ld.cumLedger(),
		Main:         f.MainChip().ExportState(),
	}
	if cc := f.CacheChip(); cc != nil {
		st.Cache = cc.ExportState()
	}
	return st
}

// epochAcc accumulates one (shard, epoch) cell: the epoch's day rows, the
// cumulative frozen contributions of dead devices, the cumulative terminal
// aggregate, and the point-in-time ledger. Workers fold in under the
// mutex; every fold is integer-additive (or name-merged), so the final
// contents are independent of completion order.
type epochAcc struct {
	mu sync.Mutex

	dayLo, dayHi int
	finalEpoch   bool

	series     *DaySeries
	frozenRow  []int64
	frozenWear report.Sketch
	agg        *Aggregate // cumulative dead-device aggregate (the carry)
	survivors  *Aggregate // terminal survivor fold, final epoch only
	liveLedger wtrace.Snapshot
	live       int
}

// newEpochAcc seeds the cell's accumulator from the previous epoch's
// footer carry (nil for epoch 1).
func newEpochAcc(days, dayLo, dayHi int, prev *epochFooter) *epochAcc {
	a := &epochAcc{
		dayLo:      dayLo,
		dayHi:      dayHi,
		finalEpoch: dayHi == days,
		series:     newDaySeries(dayHi - dayLo),
		frozenRow:  make([]int64, fleet.DayCols),
		frozenWear: report.NewSketch(wearLevels),
		agg:        newAggregate(),
		survivors:  newAggregate(),
	}
	if prev != nil {
		copy(a.frozenRow, prev.FrozenRows)
		a.frozenWear = prev.FrozenWear.Clone()
		a.agg = prev.Agg.clone()
		// Devices dead before this epoch contribute their frozen sample
		// to every day of it.
		for d := range a.series.Rows {
			for j, v := range a.frozenRow {
				a.series.Rows[d][j] += v
			}
			a.series.Wear[d].MergeSketch(a.frozenWear)
		}
	}
	return a
}

// addDay folds one live device's sample for a global day index.
func (a *epochAcc) addDay(day int, row []int64, wearLevel int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.addDayLocked(day, row, wearLevel)
}

func (a *epochAcc) addDayLocked(day int, row []int64, wearLevel int) {
	r := a.series.Rows[day-a.dayLo]
	for j, v := range row {
		r[j] += v
	}
	a.series.Wear[day-a.dayLo].AddBucket(wearLevel, 1)
}

// foldDeath records a device death on the given global day: its frozen
// sample fills the rest of the epoch and the cumulative frozen carry, and
// its terminal outcome joins the aggregate.
func (a *epochAcc) foldDeath(day int, row []int64, wearLevel int, out fleet.DeviceResult, wear wtrace.Snapshot) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for d := day; d < a.dayHi; d++ {
		a.addDayLocked(d, row, wearLevel)
	}
	for j, v := range row {
		a.frozenRow[j] += v
	}
	a.frozenWear.AddBucket(wearLevel, 1)
	a.agg.add(out, wear)
}

// foldLive records a device that survived the epoch: its count and its
// point-in-time scaled ledger (for mid-run ledger queries).
func (a *epochAcc) foldLive(wear wtrace.Snapshot) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.live++
	a.liveLedger.Merge(wear)
}

// foldSurvivor records a device's terminal outcome at the horizon (final
// epoch only).
func (a *epochAcc) foldSurvivor(out fleet.DeviceResult, wear wtrace.Snapshot) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.survivors.add(out, wear)
}

// footer freezes the accumulator into the cell's checkpoint footer.
func (a *epochAcc) footer(shard, epoch int) (*epochFooter, error) {
	ft := &epochFooter{
		Shard:      shard,
		Epoch:      epoch,
		DayLo:      a.dayLo,
		DayHi:      a.dayHi,
		Live:       a.live,
		Rows:       a.series.Rows,
		Wear:       a.series.Wear,
		FrozenRows: a.frozenRow,
		FrozenWear: a.frozenWear,
		Agg:        a.agg,
	}
	ft.Ledger.Merge(a.agg.Ledger)
	ft.Ledger.Merge(a.liveLedger)
	if a.finalEpoch {
		ft.Final = a.agg.clone()
		if err := ft.Final.merge(a.survivors); err != nil {
			return nil, err
		}
	}
	return ft, nil
}

// panicHook, when non-nil, runs before every device-epoch; tests use it
// to inject a panic and pin the worker containment behaviour.
var panicHook func(p fleet.Params)

// runDeviceEpoch advances one device across the accumulator's day range,
// canonicalising (capture + reboot) at every day boundary. A nil st means
// the device is born at the epoch's first day. It returns the device's
// end-of-epoch state, or nil if the device died (the death is folded into
// acc; dead devices carry no further state). A panicking device becomes
// the returned error, naming the device and the seed that reproduces it:
// it fails its campaign, not the daemon.
func runDeviceEpoch(spec fleet.Spec, p fleet.Params, st *deviceState, acc *epochAcc) (_ *deviceState, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("fleetd: device %d (seed %d) panicked: %v", p.Index, p.Seed, r)
		}
	}()
	if panicHook != nil {
		panicHook(p)
	}
	var ld *liveDev
	for day := acc.dayLo; day < acc.dayHi; day++ {
		var died bool
		var err error
		if st == nil {
			ld, died, err = birth(spec, p)
		} else {
			ld, died, err = boot(spec, p, st)
		}
		if err == nil && !died {
			died, err = ld.runDay(day)
		}
		if err != nil {
			return nil, err
		}
		row, level := ld.DayRow(died)
		if died {
			acc.foldDeath(day, row, level, ld.Result(true), ld.scaledLedger())
			return nil, nil
		}
		acc.addDay(day, row, level)
		st = ld.capture(day + 1)
	}
	if acc.finalEpoch {
		acc.foldSurvivor(ld.Result(false), ld.scaledLedger())
	}
	acc.foldLive(ld.scaledLedger())
	return st, nil
}
