// Package fleet runs population-scale wear simulations: N fully
// independent simulated phones in parallel, answering the question a
// carrier or OEM actually asks about the paper's result — "what fraction
// of a million-phone population bricks within a year, given a realistic
// mix of device models and app workloads?"
//
// # Architecture
//
// One stack, two schedules. Phone is the booted phone — clock, device,
// mounted file system, runner — and the only definition of how it boots,
// recovers from a power cut, paces its writes and dies. Run schedules it
// as first boot, then run to the horizon; internal/fleetd schedules the
// same type day by day, rebooting from captured chip state. They stay two
// callers because that nightly reboot, which makes a campaign's
// kill/resume byte-identical, re-keys every RNG stream per day and so
// cannot produce Run's always-on phones (DESIGN.md §6, §11).
//
// Run's engine is a worker pool. Each worker owns a private Phone per
// device, so no shared mutable state ever crosses a goroutine boundary.
// Work is distributed by an atomic cursor (dynamic load balancing: a
// worker that drew a cheap benign phone immediately picks up the next
// index), and results stream into a lock-free per-worker Accumulator that
// is merged after the pool drains.
//
// # Determinism
//
// A fleet run is a pure function of its Spec. Three properties combine to
// make the aggregate output byte-identical across runs and across worker
// counts:
//
//  1. Per-device derivation: every simulation parameter of device i —
//     profile, workload class, daily write rate, the NAND/FTL/workload
//     seeds — is sampled from an RNG seeded by MixSeed(Spec.Seed, i).
//     Nothing depends on which worker runs the device or when.
//  2. Isolated simulation: each device runs on its own clock against its
//     own stack; the simulation itself is deterministic given its seeds.
//  3. Additive aggregation: accumulators hold only integer counters and
//     integer-count histograms, so merging is exactly associative and
//     commutative — any partition of devices over workers merges to the
//     same state. (Floating-point sums would not survive reordering.)
//
// See DESIGN.md §6 for the full determinism argument.
package fleet

import (
	"fmt"

	"flashwear/internal/report"
	"flashwear/internal/wtrace"
)

// Group aggregates outcomes for a slice of the population (one profile, or
// one workload class). All fields are integers so that merging per-worker
// groups is order-independent.
type Group struct {
	Devices int64
	Bricked int64
	// HostMiB is full-scale host data written, in MiB.
	HostMiB int64
	// BrickDayMilli is the sum over bricked devices of time-to-brick in
	// millidays; divide by Bricked for the mean.
	BrickDayMilli int64
}

func (g *Group) add(r DeviceResult) {
	g.Devices++
	g.HostMiB += r.HostBytes >> 20
	if r.Bricked {
		g.Bricked++
		g.BrickDayMilli += int64(r.Days * 1000)
	}
}

func (g *Group) merge(o *Group) {
	g.Devices += o.Devices
	g.Bricked += o.Bricked
	g.HostMiB += o.HostMiB
	g.BrickDayMilli += o.BrickDayMilli
}

// BrickFraction returns the fraction of the group's devices that bricked.
func (g *Group) BrickFraction() float64 {
	if g.Devices == 0 {
		return 0
	}
	return float64(g.Bricked) / float64(g.Devices)
}

// MeanDaysToBrick returns the mean time-to-brick over the group's bricked
// devices, or 0 if none bricked.
func (g *Group) MeanDaysToBrick() float64 {
	if g.Bricked == 0 {
		return 0
	}
	return float64(g.BrickDayMilli) / 1000 / float64(g.Bricked)
}

// Accumulator collects population statistics. Each worker owns one (no
// locking on the hot path); Run merges them into the Result.
type Accumulator struct {
	Total Group
	// TimeToBrick histograms days-to-brick over bricked devices.
	TimeToBrick *report.Histogram
	// DeathGiB histograms full-scale host GiB written at death.
	DeathGiB *report.Histogram
	// SurvivorWear histograms the final Type B wear-indicator level of
	// devices that survived the horizon (JEDEC levels 0–11).
	SurvivorWear *report.Histogram
	// WriteAmp histograms per-device cumulative write amplification.
	WriteAmp *report.Histogram
	// Metrics is the population wear trajectory sampled every
	// Spec.MetricsEvery (nil when sampling is disabled).
	Metrics *MetricsSeries
	// Wear is the population wear-attribution ledger (nil unless
	// Spec.WearTrace): the per-origin full-scale wear of every device,
	// merged by origin name. All counts are integers, so like every other
	// accumulator field it merges order-independently.
	Wear *wtrace.Snapshot

	// Failed counts devices whose simulation panicked. The panic is
	// contained in the worker: the device is recorded here instead of
	// aborting the run, and it contributes to no other statistic.
	Failed int64
	// FailedSeeds are the per-device seeds of the failed simulations,
	// sorted ascending, so each failure can be reproduced in isolation
	// (seed a single-device Spec with it).
	FailedSeeds []int64

	ByProfile map[string]*Group
	ByClass   map[string]*Group
}

func newAccumulator(spec Spec) *Accumulator {
	a := &Accumulator{
		TimeToBrick:  report.NewHistogram(0, spec.Days, 120),
		DeathGiB:     report.NewHistogram(0, 40960, 160), // 256 GiB buckets to 40 TiB
		SurvivorWear: report.NewHistogram(0, 12, 12),
		WriteAmp:     report.NewHistogram(1, 4, 60),
		ByProfile:    make(map[string]*Group),
		ByClass:      make(map[string]*Group),
	}
	if spec.MetricsEvery > 0 {
		a.Metrics = newMetricsSeries(spec)
	}
	if spec.WearTrace {
		a.Wear = &wtrace.Snapshot{}
	}
	return a
}

func groupFor(m map[string]*Group, key string) *Group {
	g, ok := m[key]
	if !ok {
		g = &Group{}
		m[key] = g
	}
	return g
}

func (a *Accumulator) add(r DeviceResult) {
	a.Total.add(r)
	groupFor(a.ByProfile, r.ProfileName).add(r)
	groupFor(a.ByClass, r.Class.String()).add(r)
	if r.Bricked {
		a.TimeToBrick.Add(r.Days)
		a.DeathGiB.Add(float64(r.HostBytes) / (1 << 30))
	} else {
		a.SurvivorWear.Add(float64(r.WearLevel))
	}
	a.WriteAmp.Add(r.WA)
	if a.Metrics != nil && r.metrics != nil {
		a.Metrics.addDevice(r.metrics)
	}
	if a.Wear != nil {
		a.Wear.Merge(r.wear)
	}
}

// noteFailed records a device whose simulation panicked.
func (a *Accumulator) noteFailed(seed int64) {
	a.Failed++
	a.FailedSeeds = append(a.FailedSeeds, seed)
}

func (a *Accumulator) merge(o *Accumulator) error {
	a.Total.merge(&o.Total)
	a.Failed += o.Failed
	a.FailedSeeds = append(a.FailedSeeds, o.FailedSeeds...)
	for _, pair := range []struct{ dst, src *report.Histogram }{
		{a.TimeToBrick, o.TimeToBrick},
		{a.DeathGiB, o.DeathGiB},
		{a.SurvivorWear, o.SurvivorWear},
		{a.WriteAmp, o.WriteAmp},
	} {
		if err := pair.dst.Merge(pair.src); err != nil {
			return fmt.Errorf("fleet: merge: %w", err)
		}
	}
	if a.Metrics != nil {
		if err := a.Metrics.merge(o.Metrics); err != nil {
			return err
		}
	}
	if a.Wear != nil && o.Wear != nil {
		a.Wear.Merge(*o.Wear)
	}
	for k, g := range o.ByProfile {
		groupFor(a.ByProfile, k).merge(g)
	}
	for k, g := range o.ByClass {
		groupFor(a.ByClass, k).merge(g)
	}
	return nil
}

// Result is the merged outcome of a fleet run.
type Result struct {
	// Spec echoes the run's (defaulted) specification.
	Spec Spec
	*Accumulator
}
