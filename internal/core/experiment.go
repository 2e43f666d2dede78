package core

import (
	"errors"
	"time"

	"flashwear/internal/device"
	"flashwear/internal/ftl"
	"flashwear/internal/simclock"
)

// Increment records one wear-indicator step — one row of Figure 2/4 or
// Table 1. Volumes and times are reported at full device scale even when
// the simulation ran on a scaled-down profile.
type Increment struct {
	Pool      ftl.PoolID
	FromLevel int
	ToLevel   int
	HostGiB   float64 // host bytes written while moving between the levels
	Hours     float64 // simulated time the increment took
	Pattern   string  // workload label active during the increment
	SpaceUtil float64 // utilisation phase active during the increment
}

// RunReport is the outcome of a wear run.
type RunReport struct {
	DeviceName string
	Scale      int64
	Increments []Increment
	// TotalHostGiB is the full-scale host volume written in the run.
	TotalHostGiB float64
	// TotalHours is the full-scale simulated duration of the run.
	TotalHours float64
	// Bricked reports whether the run ended in device failure.
	Bricked bool
	// FinalWA is the device's cumulative write amplification.
	FinalWA float64
}

// IncrementsFor filters the report's increments by pool.
func (r RunReport) IncrementsFor(pool ftl.PoolID) []Increment {
	var out []Increment
	for _, inc := range r.Increments {
		if inc.Pool == pool {
			out = append(out, inc)
		}
	}
	return out
}

// MeanHostGiBPerIncrement averages host volume per increment for a pool —
// the quantity Figure 2 plots.
func (r RunReport) MeanHostGiBPerIncrement(pool ftl.PoolID) float64 {
	incs := r.IncrementsFor(pool)
	if len(incs) == 0 {
		return 0
	}
	var sum float64
	for _, inc := range incs {
		sum += inc.HostGiB
	}
	return sum / float64(len(incs))
}

// StepFunc writes approximately budget bytes of workload, returning the
// bytes written. It is how the runner stays agnostic of raw-device vs
// file-system workloads.
type StepFunc func(budget int64) (int64, error)

// stepBytes is the workload granularity between indicator polls.
const stepBytes = 4 << 20

// Runner drives a workload against a device while watching the JEDEC wear
// indicators, emitting an Increment per level change — the §4.3
// measurement loop.
type Runner struct {
	Dev   *device.Device
	Clock *simclock.Clock
	// Scale is the profile's capacity divisor; volumes and times are
	// multiplied back by it. Zero means 1.
	Scale int64
	// Pattern and SpaceUtil label emitted increments (Table 1 columns).
	Pattern   string
	SpaceUtil float64

	started      bool
	lastA, lastB int
	bytesAtMark  map[ftl.PoolID]int64
	timeAtMark   map[ftl.PoolID]time.Duration
	hostBytes    int64
	startTime    time.Duration
	report       RunReport
}

// NewRunner builds a runner for a device.
func NewRunner(dev *device.Device, clock *simclock.Clock, scale int64) *Runner {
	if scale <= 0 {
		scale = 1
	}
	return &Runner{
		Dev: dev, Clock: clock, Scale: scale,
		bytesAtMark: make(map[ftl.PoolID]int64),
		timeAtMark:  make(map[ftl.PoolID]time.Duration),
	}
}

// Reset returns the runner to the state NewRunner leaves it in, labels
// included, keeping its storage: the runner of a device stack handed to
// another run.
func (r *Runner) Reset() {
	clear(r.bytesAtMark)
	clear(r.timeAtMark)
	*r = Runner{Dev: r.Dev, Clock: r.Clock, Scale: r.Scale,
		bytesAtMark: r.bytesAtMark, timeAtMark: r.timeAtMark}
}

func (r *Runner) init() {
	if r.started {
		return
	}
	r.started = true
	r.report.DeviceName = r.Dev.Profile().Name
	r.report.Scale = r.Scale
	// Baseline from the FTL (ground truth), not the possibly-garbage
	// register, so the methodology works on BLU-class devices too.
	r.lastA = r.Dev.FTL().WearIndicator(ftl.PoolA)
	r.lastB = r.Dev.FTL().WearIndicator(ftl.PoolB)
	r.startTime = r.Clock.Now()
	for _, p := range []ftl.PoolID{ftl.PoolA, ftl.PoolB} {
		r.bytesAtMark[p] = 0
		r.timeAtMark[p] = r.startTime
	}
}

// gib converts bytes at simulation scale to full-scale GiB.
func (r *Runner) gib(b int64) float64 {
	return float64(b) * float64(r.Scale) / float64(1<<30)
}

// hours converts a simulated duration to full-scale hours.
func (r *Runner) hours(d time.Duration) float64 {
	return d.Hours() * float64(r.Scale)
}

// poll checks both indicators, recording increments.
func (r *Runner) poll() {
	f := r.Dev.FTL()
	now := r.Clock.Now()
	if b := f.WearIndicator(ftl.PoolB); b > r.lastB {
		r.report.Increments = append(r.report.Increments, Increment{
			Pool: ftl.PoolB, FromLevel: r.lastB, ToLevel: b,
			HostGiB:   r.gib(r.hostBytes - r.bytesAtMark[ftl.PoolB]),
			Hours:     r.hours(now - r.timeAtMark[ftl.PoolB]),
			Pattern:   r.Pattern,
			SpaceUtil: r.SpaceUtil,
		})
		r.lastB = b
		r.bytesAtMark[ftl.PoolB] = r.hostBytes
		r.timeAtMark[ftl.PoolB] = now
	}
	if f.CacheChip() == nil {
		return
	}
	if a := f.WearIndicator(ftl.PoolA); a > r.lastA {
		r.report.Increments = append(r.report.Increments, Increment{
			Pool: ftl.PoolA, FromLevel: r.lastA, ToLevel: a,
			HostGiB:   r.gib(r.hostBytes - r.bytesAtMark[ftl.PoolA]),
			Hours:     r.hours(now - r.timeAtMark[ftl.PoolA]),
			Pattern:   r.Pattern,
			SpaceUtil: r.SpaceUtil,
		})
		r.lastA = a
		r.bytesAtMark[ftl.PoolA] = r.hostBytes
		r.timeAtMark[ftl.PoolA] = now
	}
}

// RunPhase drives step until stop returns true, the device bricks, or the
// phase writes maxHostBytes (at simulation scale; 0 = unlimited).
func (r *Runner) RunPhase(step StepFunc, maxHostBytes int64, stop func() bool) error {
	r.init()
	var phaseBytes int64
	for {
		if stop != nil && stop() {
			return nil
		}
		if maxHostBytes > 0 && phaseBytes >= maxHostBytes {
			return nil
		}
		n, err := step(stepBytes)
		r.hostBytes += n
		phaseBytes += n
		r.poll()
		if err != nil {
			// A device that can no longer accept writes — whether hard
			// bricked or retired into read-only EOL mode — or that throws
			// uncorrectable read errors on the host path — is finished:
			// §4.3's indicator level 11 is defined as "may introduce
			// uncorrectable errors ... considered unreliable".
			if errors.Is(err, device.ErrBricked) || errors.Is(err, ftl.ErrBricked) ||
				errors.Is(err, device.ErrReadOnly) || errors.Is(err, ftl.ErrReadOnly) ||
				errors.Is(err, ftl.ErrUnreadable) {
				r.report.Bricked = true
				return nil
			}
			return err
		}
	}
}

// UntilLevel returns a stop condition: pool's indicator reached level.
func (r *Runner) UntilLevel(pool ftl.PoolID, level int) func() bool {
	return func() bool {
		if pool == ftl.PoolA {
			return r.lastA >= level
		}
		return r.lastB >= level
	}
}

// Report finalises and returns the run report.
func (r *Runner) Report() RunReport {
	r.init()
	r.report.TotalHostGiB = r.gib(r.hostBytes)
	r.report.TotalHours = r.hours(r.Clock.Now() - r.startTime)
	r.report.FinalWA = r.Dev.FTL().WriteAmplification()
	r.report.Bricked = r.report.Bricked || r.Dev.Failed()
	return r.report
}
