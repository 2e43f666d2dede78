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
// deviceState, alive for one simulated day at a time — plus what fleetd
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

// bear runs device p's first boot on stack ph, reborn as p under day 0's
// plan: formatted to the state a new stack has, so the birth does not
// depend on which devices ph carried before. The clock after setup
// anchors the device's day grid. The second return is true when wear or
// faults kill the device before setup completes (a death, not an error).
func bear(ph *fleet.Phone, spec fleet.Spec, p fleet.Params) (*liveDev, bool, error) {
	if err := ph.Rebirth(p, dayPlan(spec, p, 0, 0)); err != nil {
		return nil, false, err
	}
	died, err := ph.FirstBoot()
	return &liveDev{Phone: ph}, died, err
}

// worker is one campaign worker's machinery, kept from device to device
// and from cell to cell so that a device-day builds nothing: one device
// stack per device model, the arena it decodes the states it is handed
// into, and the state and buffer it encodes end-of-epoch frames from.
// Only its own goroutine touches it.
type worker struct {
	stacks      fleet.Stacks
	arena       arena
	out         deviceState
	main, cache nand.ChipState // out's chips, viewing the stack
	e           codec
}

// crew is what one sweep keeps from cell to cell: the cell buffers (nil
// for an in-memory campaign), the population's sampled parameters, the
// workers, and the spare buffers device frames travel to them in.
type crew struct {
	bufs    *cellBufs
	params  []fleet.Params
	workers []worker
	frames  chan []byte
}

// population returns every device's parameters, sampled on first use:
// fleet.Spec.Sample seeds a source per device, once per campaign, not per
// device-day.
func (cr *crew) population(spec fleet.Spec) []fleet.Params {
	if cr.params == nil {
		cr.params = make([]fleet.Params, spec.Devices)
		for i := range cr.params {
			cr.params[i] = spec.Sample(i)
		}
	}
	return cr.params
}

// frame returns an empty buffer for a device frame, a spare one if the
// workers have handed one back; recycle hands it back once decoded.
func (cr *crew) frame() []byte {
	select {
	case b := <-cr.frames:
		return b[:0]
	default:
		return nil
	}
}

func (cr *crew) recycle(b []byte) {
	select {
	case cr.frames <- b:
	default:
	}
}

// boot reboots stack ph as device p from the day-boundary state st:
// the stack is retargeted to p (nand, FTL, device, clock and tracer as a
// fresh build would have them), st's chip states imported — when st
// carries none, the stack is p's own and its flash already holds them —
// RNG streams re-keyed by (seed, day), so post-resume behaviour is a pure
// function of the resume point, not of how many draws the previous
// process consumed, then Phone.Reboot. The second return is true when the
// device cannot boot (wear killed it between days): that is a death, not
// an error, and it is deterministic because every run passes through this
// same boot at this same boundary.
func boot(ph *fleet.Phone, spec fleet.Spec, p fleet.Params, st *deviceState) (*liveDev, bool, error) {
	day := int64(st.DaysDone)
	if err := ph.Retarget(p, dayPlan(spec, p, st.DaysDone, st.Now), st.Now); err != nil {
		return nil, false, err
	}
	f := ph.Dev.FTL()
	cc := f.CacheChip()
	if st.Main != nil {
		if err := f.MainChip().ImportState(st.Main); err != nil {
			return nil, false, fmt.Errorf("fleetd: device %d: %w", p.Index, err)
		}
		if cc != nil {
			if st.Cache == nil {
				return nil, false, fmt.Errorf("fleetd: device %d: state has no cache chip", p.Index)
			}
			if err := cc.ImportState(st.Cache); err != nil {
				return nil, false, fmt.Errorf("fleetd: device %d: %w", p.Index, err)
			}
		}
	}
	chipSeed := fleet.MixSeed(p.Seed, day)
	f.MainChip().Reseed(chipSeed)
	if cc != nil {
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

// counters is the device's persistent state at a day boundary but for
// the chips': pure reads of the live stack.
func (ld *liveDev) counters(daysDone int) deviceState {
	f := ld.Dev.FTL()
	return deviceState{
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
	}
}

// view is the device's state at a day boundary for encoding, in w.out:
// the chips' states are views of the stack (nand.Chip.View), valid until
// the stack runs again.
func (w *worker) view(ld *liveDev, daysDone int) *deviceState {
	f := ld.Dev.FTL()
	w.out = ld.counters(daysDone)
	f.MainChip().View(&w.main)
	w.out.Main = &w.main
	if cc := f.CacheChip(); cc != nil {
		cc.View(&w.cache)
		w.out.Cache = &w.cache
	}
	return &w.out
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
// rebooting it at every day boundary. It starts on the worker's stack for
// its model: born there at the epoch's first day when st is nil, booted
// from st otherwise. It returns the device alive at the end of the epoch
// — for the caller to capture from before the worker runs another device
// — or nil if the device died (the death is folded into acc; dead devices
// carry no further state). A panicking device becomes the returned error,
// naming the device and the seed that reproduces it: it fails its
// campaign, not the daemon.
func (w *worker) runDeviceEpoch(spec fleet.Spec, p fleet.Params, st *deviceState, acc *epochAcc) (_ *liveDev, err error) {
	defer func() {
		if r := recover(); r != nil {
			w.stacks.Drop(p)
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
		switch {
		case ld != nil:
			// A day boundary inside the epoch: the device reboots on its
			// own stack, whose flash already holds its state.
			c := ld.counters(day)
			ld, died, err = boot(ld.Phone, spec, p, &c)
		default:
			// Born or booted from st on the worker's stack for its model.
			var ph *fleet.Phone
			if ph, err = w.stacks.Get(spec, p); err == nil {
				if st == nil {
					ld, died, err = bear(ph, spec, p)
				} else {
					ld, died, err = boot(ph, spec, p, st)
				}
			}
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
	}
	if acc.finalEpoch {
		acc.foldSurvivor(ld.Result(false), ld.scaledLedger())
	}
	acc.foldLive(ld.scaledLedger())
	return ld, nil
}
