package fleet

import (
	"context"
	"fmt"
	"time"

	"flashwear/internal/faultinject"
	"flashwear/internal/wtrace"
)

// DeviceResult is the outcome of one simulated phone. Volumes and times
// are full-scale (the per-device capacity scaling is already multiplied
// back).
type DeviceResult struct {
	Index       int
	ProfileName string
	Class       Class
	// Bricked reports device death within the horizon.
	Bricked bool
	// ReadOnly reports that the death was the graceful JEDEC read-only
	// retirement rather than a hard brick (a subset of Bricked deaths).
	ReadOnly bool
	// Days is the time from workload start to brick (or to the horizon
	// for survivors), in full-scale days.
	Days float64
	// HostBytes is total host data the device absorbed, including the
	// initial file-system and file-set fill.
	HostBytes int64
	// WearLevel is the final Type B JEDEC wear-indicator level (FTL
	// ground truth, so it is meaningful even on BLU-class devices whose
	// registers read garbage).
	WearLevel int
	// WA is the device's cumulative write amplification.
	WA float64

	// metrics is the device's padded day-row set (nil unless
	// Spec.MetricsEvery is set); see metrics.go.
	metrics [][]int64
	// wear is the device's full-scale wear ledger (zero-value unless
	// Spec.WearTrace is set).
	wear wtrace.Snapshot
	// faults is what the device's fault plan did (Result.Faults).
	faults Faults
}

// simulateDevice runs device p on the worker's stack for its model, reborn
// as p: formatted to the state NewPhone builds, so the device's outcome
// does not depend on which devices the stack carried before (DESIGN.md
// §6).
func simulateDevice(ctx context.Context, spec Spec, p Params, stacks *Stacks) (DeviceResult, error) {
	ph, err := stacks.Get(spec, p)
	if err != nil {
		return DeviceResult{}, err
	}
	if err := ph.Rebirth(p, devicePlan(spec, p)); err != nil {
		return DeviceResult{}, err
	}
	return simulate(ctx, spec, ph)
}

// devicePlan is the fault plan device p runs under, nil when the spec
// injects nothing: re-seeded per device, so fault schedules stay
// independent across the population but are a pure function of the Spec.
func devicePlan(spec Spec, p Params) *faultinject.Plan {
	if spec.Faults == nil || spec.Faults.Empty() {
		return nil
	}
	seeded := spec.Faults.WithSeed(spec.Faults.Seed + p.Seed)
	return &seeded
}

// simulate is fleet.Run's schedule over a blank Phone: first boot, then run
// to the horizon.
func simulate(ctx context.Context, spec Spec, ph *Phone) (DeviceResult, error) {
	p := ph.Params
	// Sampling starts at device birth — before mkfs, so the file-system
	// fill is part of the trajectory — on the scaled cadence: full-scale
	// MetricsEvery divides by the effective scale exactly as the horizon
	// does, so row k is the device at full-scale age (k+1)*Every. The
	// samples ride the phone's own clock and only read (DESIGN.md §7).
	var rows [][]int64
	if spec.MetricsEvery > 0 {
		scaledEvery := spec.MetricsEvery / time.Duration(ph.Scale)
		if scaledEvery <= 0 {
			return DeviceResult{}, fmt.Errorf("fleet: device %d (%s): MetricsEvery %v vanishes at scale %d",
				p.Index, ph.ProfileName, spec.MetricsEvery, ph.Scale)
		}
		ph.Clock.Every(scaledEvery, func() {
			row, _ := ph.DayRow(false)
			rows = append(rows, row)
		})
	}

	died, err := ph.FirstBoot()
	if err != nil {
		return DeviceResult{}, err
	}
	if !died {
		// The horizon in scaled simulated time: full-scale days divide by
		// the effective scale, mirroring how results multiply times back.
		horizon := ph.WorkStart() + time.Duration(spec.Days/float64(ph.Scale)*24*float64(time.Hour))
		died, err = ph.RunUntil(horizon, func() bool { return ctx.Err() != nil })
		if err != nil {
			return DeviceResult{}, err
		}
	}
	if err := ctx.Err(); err != nil {
		return DeviceResult{}, err
	}
	res := ph.Result(died)
	st := ph.Dev.FTL().Stats()
	res.faults.Recoveries, res.faults.LostPages = st.Recoveries, st.LostPages
	if inj := ph.Dev.Injector(); inj != nil {
		st := inj.Stats()
		res.faults.ReadFaults, res.faults.ProgramFaults = st.ReadFaults, st.ProgramFaults
	}
	if spec.MetricsEvery > 0 {
		// Exactly one row per whole interval: a phone that died early
		// freezes at its final state for the remaining intervals; a
		// survivor that overshot the horizon by part of a step is clipped
		// back to it.
		n := metricRowCount(spec)
		if len(rows) < n {
			final, _ := ph.DayRow(died)
			for len(rows) < n {
				rows = append(rows, final)
			}
		}
		res.metrics = rows[:n]
	}
	if spec.WearTrace {
		// Scale each integer count back to full scale before aggregation,
		// exactly as the metrics pipeline does, so the merged fleet ledger
		// is a pure function of the Spec (DESIGN.md §6).
		res.wear = ph.Ledger()
		res.wear.Scale(ph.Scale)
	}
	return res, nil
}
