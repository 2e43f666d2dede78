package fleet

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"flashwear/internal/core"
	"flashwear/internal/device"
	"flashwear/internal/faultinject"
	"flashwear/internal/fs"
	"flashwear/internal/fs/extfs"
	"flashwear/internal/ftl"
	"flashwear/internal/simclock"
	"flashwear/internal/workload"
	"flashwear/internal/wtrace"
)

// Phone is one simulated phone's booted stack — device, optional wear
// tracer, extfs, the app's rewritten file set, the paced step and the
// wear-indicator runner — and the one definition of what happens to it:
// how it first boots, how it comes back from a power cut, how its writes
// are paced, and which errors mean it is dead. Both engines drive it and
// differ only in schedule: fleet.Run boots once and runs to the horizon;
// fleetd boots every simulated day, from imported chip state after the
// first (DESIGN.md §11).
//
// A Phone is used in order: NewPhone, then whatever the caller attaches to
// Dev (telemetry, imported chip state), then FirstBoot or Reboot, then
// RunUntil as often as the schedule wants, then Result. Nothing is shared
// between Phones, so concurrent ones need no locking.
type Phone struct {
	Params      Params
	ProfileName string
	// Scale is the effective capacity divisor of this device; volumes and
	// times read off Dev and Clock multiply back by it.
	Scale int64
	Clock *simclock.Clock
	Dev   *device.Device

	reqBytes int64
	// clsOrg is the wear-trace origin the workload's operations are charged
	// to, when the spec traces wear (Dev.WearTracer is then non-nil).
	clsOrg wtrace.Origin
	set    *workload.FileSet
	runner *core.Runner
	step   core.StepFunc
	// workStart is the clock when first-boot setup finished: the zero point
	// of the phone's age and of fleetd's day grid.
	workStart time.Duration
}

// remounts counts successful power-loss recoveries across all phones of
// all runs — schedule-independent in total, never part of a result; tests
// read it to prove a fault plan actually exercised the recovery path.
var remounts atomic.Int64

// Remounts returns the process-wide count of successful remounts, for
// tests outside this package.
func Remounts() int64 { return remounts.Load() }

// NewPhone builds the device (and tracer) of the phone p describes, on
// clock, injecting plan if non-nil. The device is blank and powered; the
// caller may attach instruments or import chip state before booting it.
func NewPhone(spec Spec, p Params, plan *faultinject.Plan, clock *simclock.Clock) (*Phone, error) {
	prof := spec.Profiles[p.profile].Profile
	prof.Seed = p.Seed
	if plan != nil {
		prof.Faults = plan
	}
	ph := &Phone{
		Params:      p,
		ProfileName: prof.Name,
		Scale:       prof.EffectiveScale(spec.Scale),
		Clock:       clock,
		reqBytes:    spec.ReqBytes,
	}
	dev, err := device.New(prof.Scaled(spec.Scale), clock)
	if err != nil {
		return nil, ph.fail(err)
	}
	ph.Dev = dev
	// Wear attribution attaches at device birth: mkfs, mount and the fill
	// run untagged (origin "os"), and the file system handed to the
	// workload is wrapped so every operation it issues — and all the GC,
	// wear-leveling and cache work those writes cause — is charged to the
	// device's workload class.
	if spec.WearTrace {
		tr := wtrace.New()
		dev.EnableWearTrace(tr)
		ph.clsOrg = tr.Origin(p.Class.String())
	}
	return ph, nil
}

func (ph *Phone) fail(err error) error {
	return fmt.Errorf("fleet: device %d (%s): %w", ph.Params.Index, ph.ProfileName, err)
}

func isPowerLoss(err error) bool {
	return errors.Is(err, device.ErrPowerLoss) || errors.Is(err, ftl.ErrPowerLoss)
}

// isDeath reports the errors that mean the phone died of wear rather than
// that the simulation failed: the device bricked or retired read-only; a
// page the journal needs rotted past ECC (ErrUnreadable); or extreme wear
// destroyed file-system metadata GC could no longer relocate
// (ftl.Stats.LostPages) — the superblock itself can rot. Whichever it is,
// the phone no longer boots or takes writes, which is the paper's brick.
func isDeath(err error) bool {
	return errors.Is(err, device.ErrBricked) || errors.Is(err, ftl.ErrBricked) ||
		errors.Is(err, device.ErrReadOnly) || errors.Is(err, ftl.ErrReadOnly) ||
		errors.Is(err, ftl.ErrUnreadable) ||
		errors.Is(err, extfs.ErrCorrupt) || errors.Is(err, extfs.ErrNotExtfs)
}

// maxBootCuts bounds consecutive power cuts inside one boot: a schedule so
// hot that the ninth attempt is cut too never lets the phone come up, and
// that counts as dead.
const maxBootCuts = 8

// mount mounts the device's file system as the workload sees it.
func (ph *Phone) mount() (fs.FileSystem, error) {
	mounted, err := extfs.Mount(ph.Dev, fs.Options{DataAccounting: true})
	if err != nil {
		return nil, err
	}
	if tr := ph.Dev.WearTracer(); tr != nil {
		return wtrace.TagFS(mounted, tr, ph.clsOrg), nil
	}
	return mounted, nil
}

// newFileSet is the paper's file-set shape: a few files in a private
// directory, rewritten at random offsets — under a few percent of capacity
// at full scale, clamped up so tiny scaled devices still have room for
// random addressing.
func (ph *Phone) newFileSet(fsys fs.FileSystem) *workload.FileSet {
	fileSize := ph.Dev.Size() / 40
	if min := 4 * ph.reqBytes; fileSize < min {
		fileSize = min
	}
	set := workload.NewFileSet(fsys, "/app", fileSize, ph.Params.Seed+1)
	set.ReqBytes = ph.reqBytes
	return set
}

// arm builds the runner and the step it drives. A paced phone gets a fresh
// pacer, so its rate is held from this boot on.
func (ph *Phone) arm() {
	ph.runner = core.NewRunner(ph.Dev, ph.Clock, ph.Scale)
	ph.runner.Pattern = ph.Params.Class.String()
	ph.step = ph.set.Step
	if ph.Params.DailyBytes > 0 {
		ph.step = (&pacer{
			clock:        ph.Clock,
			step:         ph.set.Step,
			perSimSecond: float64(ph.Params.DailyBytes) / (24 * 60 * 60),
		}).Step
	}
}

// FirstBoot formats the blank device, mounts it and fills the working
// files. An injected power cut can interrupt any of that; like a phone
// that loses power during first boot, the device power-cycles and
// reformats until setup holds (the retry count is deterministic, so so is
// the rebuilt file set). died reports a phone that wear or faults killed
// before setup completed — a death, not a failed simulation.
func (ph *Phone) FirstBoot() (died bool, err error) {
	install := func() error {
		if err := extfs.Mkfs(ph.Dev); err != nil {
			return fmt.Errorf("mkfs: %w", err)
		}
		fsys, err := ph.mount()
		if err != nil {
			return fmt.Errorf("mount: %w", err)
		}
		ph.set = ph.newFileSet(fsys)
		if err := ph.set.Setup(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		return nil
	}
	for attempt := 0; ; attempt++ {
		err := install()
		if isPowerLoss(err) && attempt < maxBootCuts {
			if err := ph.Dev.PowerCycle(); err != nil {
				return false, ph.fail(fmt.Errorf("power cycle: %w", err))
			}
			continue
		}
		ph.workStart = ph.Clock.Now()
		switch {
		case err == nil:
			ph.arm()
			return false, nil
		case isPowerLoss(err), isDeath(err):
			return true, nil
		default:
			return false, ph.fail(err)
		}
	}
}

// Reboot boots a phone whose flash the caller imported from an earlier
// boot that set up at workStart: the working files are reattached rather
// than refilled, with writes rewrites already behind them and offsets
// re-keyed by seed, after a clean power cut and the same recovery a
// mid-run cut takes.
func (ph *Phone) Reboot(workStart time.Duration, writes int, seed int64) (died bool, err error) {
	ph.workStart = workStart
	ph.set = ph.newFileSet(nil)
	ph.set.Restore(writes)
	ph.set.Reseed(seed)
	ph.arm()
	ph.Dev.CutPower()
	return ph.remount()
}

// remount brings the phone back from a power cut like a real one: the
// device power-cycles — the FTL rebuilds its mapping from on-flash OOB
// metadata — the file system is remounted and the working files
// reattached. Boot itself can be cut by the schedule, so it retries. died
// reports a phone that cannot boot at all — see isDeath and maxBootCuts.
func (ph *Phone) remount() (died bool, err error) {
	for attempt := 0; attempt < maxBootCuts; attempt++ {
		if err := ph.Dev.PowerCycle(); err != nil {
			return false, ph.fail(fmt.Errorf("power cycle: %w", err))
		}
		fsys, err := ph.mount()
		if err == nil {
			err = ph.set.Reattach(fsys)
		}
		switch {
		case err == nil:
			remounts.Add(1)
			return false, nil
		case isPowerLoss(err):
			// Cut again mid-boot: cycle and try once more.
		case isDeath(err):
			return true, nil
		default:
			return false, ph.fail(fmt.Errorf("remount: %w", err))
		}
	}
	return true, nil
}

// RunUntil drives the workload until the clock reaches deadline or stop
// (which may be nil) returns true, remounting through power cuts on the
// way. died reports that the phone did not survive: a device that
// recovers into read-only EOL mode fails its next write and the runner
// marks it; a failed remount or wear-corrupted file-system structure
// under the workload ends it here.
func (ph *Phone) RunUntil(deadline time.Duration, stop func() bool) (died bool, err error) {
	halt := func() bool {
		return ph.Clock.Now() >= deadline || (stop != nil && stop())
	}
	for {
		err := ph.runner.RunPhase(ph.step, 0, halt)
		switch {
		case err == nil:
			return ph.runner.Report().Bricked, nil
		case isPowerLoss(err):
			if died, err := ph.remount(); died || err != nil {
				return died, err
			}
		case isDeath(err):
			return true, nil
		default:
			return false, ph.fail(err)
		}
	}
}

// WorkStart returns the clock at which first-boot setup finished.
func (ph *Phone) WorkStart() time.Duration { return ph.workStart }

// Writes returns the workload's cumulative rewrite count.
func (ph *Phone) Writes() int { return ph.set.Writes() }

// Ledger returns this boot's wear-attribution ledger at simulation scale
// (zero-valued when the spec does not trace wear).
func (ph *Phone) Ledger() wtrace.Snapshot {
	tr := ph.Dev.WearTracer()
	if tr == nil {
		return wtrace.Snapshot{}
	}
	return tr.Snapshot()
}

// DayRow reads the phone's observable state as one day row (the Col*
// layout) plus its JEDEC Type B wear level — the one reading both engines'
// series are built from. Pure reads of device, FTL and chip state at full
// scale, valid on a dead stack too (a bricked chip still reports wear).
// died is the caller's verdict from FirstBoot, Reboot or RunUntil: a phone
// can be dead (an unreadable journal, rotted metadata, a boot that is cut
// every time) while its device has not failed.
func (ph *Phone) DayRow(died bool) (row []int64, wearLevel int) {
	f := ph.Dev.FTL()
	main := f.MainChip()
	row = make([]int64, DayCols)
	row[ColDevices] = 1
	if died || ph.Dev.Failed() {
		row[ColBricked] = 1
	}
	if ph.Dev.ReadOnly() {
		row[ColReadOnly] = 1
	}
	row[ColHostBytes] = ph.Dev.BytesWritten() * ph.Scale
	ms := main.Stats()
	flashBytes, erases, bad := ms.BytesProgrammed, ms.Erases, int64(ms.BadBlocks)
	if cc := f.CacheChip(); cc != nil {
		cs := cc.Stats()
		flashBytes += cs.BytesProgrammed
		erases += cs.Erases
		bad += int64(cs.BadBlocks)
	}
	row[ColFlashBytes] = flashBytes * ph.Scale
	row[ColFlashErases] = erases * ph.Scale
	row[ColBadBlocks] = bad * ph.Scale
	row[ColWearAvgMicro] = FixedPoint(main.AvgWear(), 1e6)
	row[ColWearMaxMicro] = FixedPoint(main.MaxWear(), 1e6)
	row[ColRawBERFemto] = FixedPoint(main.ExpectedRBER(), 1e15)
	wearLevel = f.WearIndicator(ftl.PoolB)
	row[ColWearLevel] = int64(wearLevel)
	return row, wearLevel
}

// Result reads the phone's terminal outcome off its lifetime counters, so
// it is valid on any boot of the phone and on a dead one.
func (ph *Phone) Result(died bool) DeviceResult {
	f := ph.Dev.FTL()
	return DeviceResult{
		Index:       ph.Params.Index,
		ProfileName: ph.ProfileName,
		Class:       ph.Params.Class,
		Bricked:     died,
		ReadOnly:    ph.Dev.ReadOnly(),
		Days:        (ph.Clock.Now() - ph.workStart).Hours() * float64(ph.Scale) / 24,
		HostBytes:   ph.Dev.BytesWritten() * ph.Scale,
		WearLevel:   f.WearIndicator(ftl.PoolB),
		WA:          f.WriteAmplification(),
	}
}

// pacer wraps a StepFunc to hold its long-run average to a target rate:
// after each burst it idles the device's clock until the bytes written so
// far are "due" at that rate. Benign phones therefore spend almost all
// simulated time idle, exactly like real ones, and simulated wear stays a
// function of volume, not of polling granularity.
type pacer struct {
	clock *simclock.Clock
	step  core.StepFunc
	// perSimSecond is the target rate in bytes per simulated second.
	// Capacity scaling preserves rates (volume and time divide by the
	// same factor), so the full-scale daily rate applies unchanged on the
	// scaled device.
	perSimSecond float64

	start   time.Duration
	started bool
	written int64
}

func (p *pacer) Step(budget int64) (int64, error) {
	if !p.started {
		p.started = true
		p.start = p.clock.Now()
	}
	n, err := p.step(budget)
	p.written += n
	due := time.Duration(float64(p.written) / p.perSimSecond * float64(time.Second))
	if owed := due - (p.clock.Now() - p.start); owed > 0 {
		p.clock.Advance(owed)
	}
	return n, err
}
