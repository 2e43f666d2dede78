package fleet

import (
	"fmt"
	"runtime"
	"time"

	"flashwear/internal/device"
	"flashwear/internal/faultinject"
)

// Class is the workload class a simulated phone's app population falls
// into. The classes coarse-grain internal/appmodel: a phone is dominated
// by its heaviest writer, so the fleet samples one class per device and a
// daily write volume from that class's distribution.
type Class int

const (
	// ClassBenign is the normal population: camera + chat + updater,
	// roughly 100 MiB/day (appmodel.SampleBenignDailyBytes).
	ClassBenign Class = iota
	// ClassBuggy is an accidentally harmful app — the Spotify cache bug
	// [26] — writing tens of GiB/day (appmodel.SampleBuggyDailyBytes).
	ClassBuggy
	// ClassAttack is the paper's §4.4 deliberate wear attack: rewrites as
	// fast as the device accepts them, unpaced.
	ClassAttack
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassBenign:
		return "benign"
	case ClassBuggy:
		return "buggy"
	case ClassAttack:
		return "attack"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// ProfileWeight is one entry of a device-model mix.
type ProfileWeight struct {
	Profile device.Profile
	Weight  float64
}

// ClassWeight is one entry of a workload-class mix.
type ClassWeight struct {
	Class  Class
	Weight float64
}

// Spec describes a fleet run. The zero value plus Devices is runnable:
// Defaults fills everything else. A Spec is a pure value — the same Spec
// produces byte-identical Results regardless of Workers.
type Spec struct {
	// Devices is the population size.
	Devices int
	// Workers is the parallelism; 0 means runtime.GOMAXPROCS(0).
	// Workers does not affect results, only wall-clock time.
	Workers int
	// Seed is the root seed every per-device seed derives from.
	Seed int64
	// Days is the simulated horizon per device, in full-scale days.
	Days float64
	// Scale divides device capacities (like the experiments' -scale);
	// volumes and times are multiplied back per device.
	Scale int64
	// ReqBytes is the rewrite request size the per-device workload
	// issues. Default 64 KiB: coarser than the paper's 4 KiB attack so a
	// run-to-brick device costs ~5M simulated page programs, not ~80M,
	// with write amplification within a few percent of the 4 KiB run.
	ReqBytes int64
	// Profiles is the device-model mix; default DefaultProfileMix.
	Profiles []ProfileWeight
	// Classes is the workload mix; default DefaultClassMix.
	Classes []ClassWeight
	// Progress, if non-nil, is called after each finished device with
	// (done, total) and the device's result; a device whose simulation
	// panicked is reported as DeviceResult{Index: i}. It is called
	// concurrently from worker goroutines and must be safe for concurrent
	// use. The order of the calls depends on the schedule; the Result
	// does not.
	Progress func(done, total int, r DeviceResult)
	// MetricsEvery, when positive, samples every device's Phone.DayRow at
	// this full-scale cadence (e.g. 24h for a daily series) and merges the
	// samples into Result.Metrics. The merged series is a pure function of
	// the Spec — byte-identical across worker counts — because every
	// per-device sample is converted to full-scale integer (or fixed-point)
	// sums before aggregation. See DESIGN.md §7.
	MetricsEvery time.Duration
	// Faults, if non-nil and non-empty, injects hardware faults into every
	// device. Each device runs the plan re-seeded from (plan seed, device
	// seed), so fault schedules are independent across the population yet
	// a pure function of the Spec — determinism is preserved.
	Faults *faultinject.Plan
	// WearTrace, when true, attaches a wear-attribution tracer to every
	// device: setup (mkfs/mount/initial fill) runs as origin "os", the
	// workload as its class name, and the per-origin ledgers — scaled to
	// full-scale volumes like everything else — merge by origin name into
	// Result.Wear. Merging is integer-additive, so the ledger is a pure
	// function of the Spec, byte-identical across Workers (DESIGN.md §6).
	WearTrace bool
}

// DefaultProfileMix is a phone-population mix over the calibrated
// profiles: mid-range eMMC phones dominate, with a flagship UFS slice,
// a budget-phone tail, and a few phones running on adopted MicroSD.
func DefaultProfileMix() []ProfileWeight {
	return []ProfileWeight{
		{device.ProfileMotoE8(), 0.30},
		{device.ProfileEMMC8(), 0.20},
		{device.ProfileEMMC16(), 0.20},
		{device.ProfileSamsungS6(), 0.15},
		{device.ProfileBLU4(), 0.08},
		{device.ProfileBLU512(), 0.04},
		{device.ProfileUSD16(), 0.03},
	}
}

// DefaultClassMix: most phones are benign; a Spotify-scale bug reaches a
// few percent of devices (the bug shipped to everyone, but cache churn at
// harmful rates depends on usage); a small tail runs something actively
// hostile.
func DefaultClassMix() []ClassWeight {
	return []ClassWeight{
		{ClassBenign, 0.90},
		{ClassBuggy, 0.07},
		{ClassAttack, 0.03},
	}
}

// Defaults returns a copy with zero fields filled in.
func (s Spec) Defaults() Spec {
	if s.Workers <= 0 {
		s.Workers = runtime.GOMAXPROCS(0)
	}
	if s.Days == 0 {
		s.Days = 365
	}
	if s.Scale <= 0 {
		s.Scale = 4096
	}
	if s.ReqBytes == 0 {
		s.ReqBytes = 64 << 10
	}
	if s.Profiles == nil {
		s.Profiles = DefaultProfileMix()
	}
	if s.Classes == nil {
		s.Classes = DefaultClassMix()
	}
	return s
}

// Validate reports the first invalid field of a defaulted Spec.
func (s Spec) Validate() error {
	switch {
	case s.Devices <= 0:
		return fmt.Errorf("fleet: Devices = %d", s.Devices)
	case s.Days <= 0:
		return fmt.Errorf("fleet: Days = %g", s.Days)
	case s.ReqBytes < 512:
		return fmt.Errorf("fleet: ReqBytes = %d", s.ReqBytes)
	case len(s.Profiles) == 0:
		return fmt.Errorf("fleet: empty profile mix")
	case len(s.Classes) == 0:
		return fmt.Errorf("fleet: empty class mix")
	case s.MetricsEvery < 0:
		return fmt.Errorf("fleet: MetricsEvery = %v", s.MetricsEvery)
	case s.MetricsEvery > 0 && s.MetricsEvery < time.Duration(s.Scale):
		// The per-device cadence is MetricsEvery divided by the capacity
		// scale; anything finer than a nanosecond cannot be scheduled.
		return fmt.Errorf("fleet: MetricsEvery %v too fine for scale %d", s.MetricsEvery, s.Scale)
	}
	if s.Faults != nil {
		if err := s.Faults.Validate(); err != nil {
			return fmt.Errorf("fleet: %w", err)
		}
	}
	if err := weightsValid("profile", weightsOf(s.Profiles)); err != nil {
		return err
	}
	if err := weightsValid("class", classWeightsOf(s.Classes)); err != nil {
		return err
	}
	for _, pw := range s.Profiles {
		if err := pw.Profile.Validate(); err != nil {
			return fmt.Errorf("fleet: %w", err)
		}
	}
	return nil
}

func weightsOf(pws []ProfileWeight) []float64 {
	out := make([]float64, len(pws))
	for i, pw := range pws {
		out[i] = pw.Weight
	}
	return out
}

func classWeightsOf(cws []ClassWeight) []float64 {
	out := make([]float64, len(cws))
	for i, cw := range cws {
		out[i] = cw.Weight
	}
	return out
}

func weightsValid(what string, ws []float64) error {
	var total float64
	for _, w := range ws {
		if w < 0 {
			return fmt.Errorf("fleet: negative %s weight %g", what, w)
		}
		//flashvet:ignore floataccum spec validation sums the config slice in fixed order, before any worker runs
		total += w
	}
	if total <= 0 {
		return fmt.Errorf("fleet: %s weights sum to %g", what, total)
	}
	return nil
}
