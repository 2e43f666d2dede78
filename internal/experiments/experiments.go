// Package experiments regenerates every table and figure of the paper's
// evaluation (§4) on the simulation stack. Each experiment is a pure
// function of a Config; Exhibits lists them all, with the config each one's
// published numbers come from, and is what `flashsim exhibit`, the
// benchmark loop and the EXPERIMENTS.md check iterate.
//
// Results are reported at full device scale: experiments run on profiles
// whose capacity is divided by Config.Scale and multiply volumes and times
// back, which preserves wear-per-(scaled)-byte and bandwidths exactly.
package experiments

import (
	"fmt"
	"time"

	"flashwear/internal/android"
	"flashwear/internal/core"
	"flashwear/internal/device"
	"flashwear/internal/ftl"
	"flashwear/internal/simclock"
	"flashwear/internal/telemetry"
	"flashwear/internal/wtrace"
)

// Config controls experiment cost.
type Config struct {
	// Scale divides device capacities. 1 reproduces full-size devices
	// (slow); the CLI default is 256; tests/benches use 1024–4096.
	Scale int64
	// MaxLevel stops wear runs once the Type B indicator reaches this
	// level (11 = run to estimated end of life).
	MaxLevel int
	// Progress, if non-nil, receives one line per completed phase.
	Progress func(format string, args ...any)
	// MetricsEvery, when positive, samples each wear run's telemetry
	// registry at this full-scale simulated cadence (the per-device cadence
	// divides by the effective scale, like every reported time).
	MetricsEvery time.Duration
	// MetricsSink receives each run's sampled series; series times are at
	// device scale, so full-scale hours are row.At.Hours() * eff. An error
	// from a sink fails the experiment.
	MetricsSink func(label string, eff int64, series *telemetry.Series) error
	// WearSink, when non-nil, attaches a wtrace tracer to each wear run's
	// device (at birth, before mkfs) and hands it over when the run ends.
	// mkfs and mount run as origin "os", the attack's file-set fill and
	// rewrites as "workload"; ledger counts are device-scale — multiply by
	// eff for full scale.
	WearSink func(label string, eff int64, tr *wtrace.Tracer) error
	// WearEvents, when positive, also buffers up to this many Chrome trace
	// events on the tracer handed to WearSink.
	WearEvents int
}

// String names the two knobs that decide an exhibit's numbers, the way
// EXPERIMENTS.md states a config.
func (c Config) String() string {
	if c.MaxLevel <= 0 {
		return fmt.Sprintf("scale %d", c.Scale)
	}
	return fmt.Sprintf("scale %d, maxlevel %d", c.Scale, c.MaxLevel)
}

// Defaults fills zero fields: scale 256, run to level 11.
func (c Config) Defaults() Config {
	if c.Scale <= 0 {
		c.Scale = 256
	}
	if c.MaxLevel <= 0 {
		c.MaxLevel = 11
	}
	if c.Progress == nil {
		c.Progress = func(string, ...any) {}
	}
	return c
}

// newDevice builds a scaled device on a fresh clock, returning the
// *effective* scale divisor (Scaled clamps tiny capacities, so results
// must be multiplied by what was actually achieved, not what was asked).
func newDevice(prof device.Profile, scale int64) (*device.Device, *simclock.Clock, int64, error) {
	clock := simclock.New()
	dev, err := device.New(prof.Scaled(scale), clock)
	if err != nil {
		return nil, nil, 0, err
	}
	return dev, clock, prof.EffectiveScale(scale), nil
}

// attackFileSize returns the paper's 100 MB file size at scale.
func attackFileSize(scale int64) int64 {
	size := int64(100<<20) / scale
	if size < 64<<10 {
		size = 64 << 10
	}
	return size
}

// fitFileSet shrinks a file set that would not fit the (scaled) device,
// keeping the paper's "<3% of capacity" spirit.
func fitFileSet(set *workloadFileSet, devSize int64) {
	if set.TotalBytes() > devSize/10 {
		size := devSize / 40
		if size < set.ReqBytes {
			size = set.ReqBytes * 16
		}
		set.FileSize = size
	}
}

// runFileWear mounts a file system on a device and drives the paper's
// file-rewrite workload until the Type B indicator reaches maxLevel or the
// device bricks. This is the common engine of Figures 2–4.
func runFileWear(prof device.Profile, kind android.FSKind, cfg Config) (core.RunReport, error) {
	cfg = cfg.Defaults()
	dev, clock, eff, err := newDevice(prof, cfg.Scale)
	if err != nil {
		return core.RunReport{}, err
	}
	// Telemetry attaches at device birth — before mkfs — so the counters
	// include the file-system fill (DESIGN.md §7). The sampler starts only
	// after every instrument is registered (a sample firing mid-mkfs would
	// otherwise freeze the series' column layout too early).
	// Wear tracing also attaches at birth, so mkfs lands on origin "os"
	// and everything else, the file-set fill included, on "workload" from
	// the first write.
	var tr *wtrace.Tracer
	if cfg.WearSink != nil {
		tr = wtrace.New()
		if cfg.WearEvents > 0 {
			tr.EnableEvents(cfg.WearEvents)
		}
		dev.EnableWearTrace(tr)
	}
	var reg *telemetry.Registry
	if cfg.MetricsEvery > 0 && cfg.MetricsSink != nil {
		reg = telemetry.NewRegistry()
		dev.Instrument(reg)
	}
	fsys, err := android.MkfsMount(dev, kind)
	if err != nil {
		return core.RunReport{}, fmt.Errorf("%s/%s: %w", prof.Name, kind, err)
	}
	if tr != nil {
		fsys = wtrace.TagFS(fsys, tr, tr.Origin("workload"))
	}
	var sampler *telemetry.Sampler
	if reg != nil {
		if in, ok := fsys.(interface{ Instrument(*telemetry.Registry) }); ok {
			in.Instrument(reg)
		}
		scaledEvery := cfg.MetricsEvery / time.Duration(eff)
		if scaledEvery <= 0 {
			return core.RunReport{}, fmt.Errorf("%s/%s: metrics cadence %v vanishes at scale %d",
				prof.Name, kind, cfg.MetricsEvery, eff)
		}
		sampler = telemetry.NewSampler(reg, clock, scaledEvery)
	}
	set := newAttackSet(fsys, eff)
	fitFileSet(set, dev.Size())
	if err := set.Setup(); err != nil {
		return core.RunReport{}, fmt.Errorf("%s/%s: setup: %w", prof.Name, kind, err)
	}
	runner := core.NewRunner(dev, clock, eff)
	runner.Pattern = "4 KiB rand rewrite"
	runner.SpaceUtil = dev.FTL().Utilisation()
	if err := runner.RunPhase(set.Step, 0, runner.UntilLevel(ftl.PoolB, cfg.MaxLevel)); err != nil {
		return core.RunReport{}, fmt.Errorf("%s/%s: %w", prof.Name, kind, err)
	}
	label := fmt.Sprintf("%s/%s", prof.Name, kind)
	if sampler != nil {
		sampler.Stop()
		sampler.Final()
		if err := cfg.MetricsSink(label, eff, sampler.Series()); err != nil {
			return core.RunReport{}, fmt.Errorf("%s: metrics sink: %w", label, err)
		}
	}
	if tr != nil {
		if err := cfg.WearSink(label, eff, tr); err != nil {
			return core.RunReport{}, fmt.Errorf("%s: wear sink: %w", label, err)
		}
	}
	return runner.Report(), nil
}
