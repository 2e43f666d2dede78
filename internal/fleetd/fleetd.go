// Package fleetd is the long-running fleet service: where internal/fleet
// answers "what happens to a million phones in a year" as one batch call,
// fleetd runs the same question as a managed campaign — sharded over the
// population, checkpointed to disk at a configurable cadence, resumable
// after a kill -9, queryable mid-run, and forkable into counterfactual
// futures.
//
// # One stack, two schedules
//
// A campaign's device is a fleet.Phone: first boot, remount, pacing and the
// rules for when a phone counts as dead are internal/fleet's, shared with
// fleet.Run. fleetd owns only its schedule — per simulated day: first boot
// or boot from imported chip state, run to the day boundary, sample,
// capture — and the state that crosses it. The schedules cannot merge: the
// nightly reboot below is what fleet.Run's always-on devices do not do.
//
// # Shard and epoch model
//
// A campaign partitions its population contiguously into Shards slices;
// shard s of S owns devices [s*N/S, (s+1)*N/S). The horizon is cut into
// epochs of CheckpointEvery simulated days. The unit of work and of
// durability is one (shard, epoch) cell: the service loads the shard's
// device states from the previous epoch's checkpoint file, advances every
// device CheckpointEvery days on a worker pool, and writes the new states
// plus the epoch's aggregates to the next file with an atomic rename.
// A cell either exists completely or not at all, so the run loop is one
// idempotent sweep: for each epoch, for each shard, reuse the cell's file
// if it is valid, otherwise recompute it. Fresh starts, crash recovery,
// pause/resume, and fork all walk the same loop — resuming after a crash
// is simply the sweep finding most cells already done.
//
// # Determinism contract
//
// Campaign results — the day series, the terminal aggregate, and the wear
// ledger — are a pure function of the CampaignSpec minus its scheduling
// knobs (Shards, Workers, CheckpointEvery). The contract is stronger than
// internal/fleet's "independent of Workers", and it is earned differently:
// fleetd canonicalises every device at every simulated day boundary. The
// live stack is torn down, the persistent chip state captured, and a fresh
// stack booted from the capture through the same power-loss recovery scan
// a real crash would take (DESIGN.md §11). Both an interrupted run and an
// uninterrupted one therefore pass through byte-identical states at every
// day boundary, so where a checkpoint actually lands cannot be observed in
// the output. The cost is a semantic choice, not an approximation: a
// fleetd device reboots nightly (its RNG streams re-key per day, its fault
// plan re-derives per day), which is why fleetd numbers are not comparable
// digit-for-digit with fleet.Run's always-on devices.
//
// # Memory
//
// Steady-state memory is O(workers) live device stacks plus O(days) series
// rows — independent of the population size. Device states between epochs
// live in the checkpoint files and are streamed record-by-record through
// the worker pool; devices that brick fold into the epoch footer's frozen
// sums and are never stored again.
package fleetd

import (
	"fmt"
	"time"

	"flashwear/internal/faultinject"
	"flashwear/internal/fleet"
)

// CampaignSpec is the submit-time description of a campaign — the JSON
// body of POST /v1/campaigns. Aggregate results are a pure function of
// this spec minus Shards, Workers, and CheckpointEvery (see the package
// documentation for the contract and DESIGN.md §11 for the argument).
type CampaignSpec struct {
	// Name is a free-form label echoed in status output.
	Name string `json:"name,omitempty"`
	// Devices is the population size.
	Devices int `json:"devices"`
	// Days is the simulated horizon per device, in whole full-scale days
	// (fleetd advances device time day by day, so fractional horizons
	// don't exist here).
	Days int `json:"days"`
	// Seed is the root seed; per-device and per-day seeds derive from it.
	Seed int64 `json:"seed"`
	// Scale divides device capacities (volumes and times multiply back),
	// exactly like fleet.Spec.Scale. Default 4096.
	Scale int64 `json:"scale,omitempty"`
	// ReqBytes is the workload rewrite request size. Default 64 KiB.
	ReqBytes int64 `json:"req_bytes,omitempty"`
	// StepBytes is the wear-indicator poll granularity. Default 4 MiB.
	StepBytes int64 `json:"step_bytes,omitempty"`
	// Buggy and Attack are the workload class-mix fractions; the rest of
	// the population is benign.
	Buggy  float64 `json:"buggy,omitempty"`
	Attack float64 `json:"attack,omitempty"`
	// Faults is a fault plan in the faultinject.ParsePlan grammar, e.g.
	// "seed=7,read=1e-4,cut-every=100000". Plans re-derive per device and
	// per simulated day.
	Faults string `json:"faults,omitempty"`
	// WearTrace attaches per-origin wear attribution to every device; the
	// campaign then exposes a fleet-wide ledger at /ledger.
	WearTrace bool `json:"wear_trace,omitempty"`

	// Shards is the partition count. Scheduling only — never visible in
	// results. Default 1.
	Shards int `json:"shards,omitempty"`
	// Workers is the per-shard worker pool size. Scheduling only.
	// Default GOMAXPROCS.
	Workers int `json:"workers,omitempty"`
	// CheckpointEvery is the epoch length in simulated days: a checkpoint
	// file is written per shard every this many days. Scheduling only.
	// 0 means one epoch spanning the whole horizon (no intermediate
	// durability; with no data directory this is also the only option).
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
}

// withDefaults returns a copy with zero scheduling fields filled in.
func (s CampaignSpec) withDefaults() CampaignSpec {
	if s.Shards <= 0 {
		s.Shards = 1
	}
	if s.CheckpointEvery < 0 {
		s.CheckpointEvery = 0
	}
	return s
}

// Validate reports the first invalid field. The fleet-level fields are
// validated by deriving the fleet.Spec.
func (s CampaignSpec) Validate() error {
	if s.Days <= 0 {
		return fmt.Errorf("fleetd: days = %d, want > 0", s.Days)
	}
	if s.Buggy < 0 || s.Attack < 0 || s.Buggy+s.Attack > 1 {
		return fmt.Errorf("fleetd: buggy/attack fractions %g/%g, want non-negative with sum <= 1", s.Buggy, s.Attack)
	}
	if s.Shards < 0 {
		return fmt.Errorf("fleetd: shards = %d, want >= 0", s.Shards)
	}
	if s.Shards > 0 && s.Devices > 0 && s.Shards > s.Devices {
		return fmt.Errorf("fleetd: shards = %d for %d devices, want <= devices", s.Shards, s.Devices)
	}
	if s.CheckpointEvery < 0 {
		return fmt.Errorf("fleetd: checkpoint_every = %d, want >= 0", s.CheckpointEvery)
	}
	if _, err := s.FleetSpec(); err != nil {
		return err
	}
	return nil
}

// FleetSpec derives the defaulted, validated fleet.Spec the engine samples
// devices from. The derivation is total: every device-visible knob of the
// campaign maps onto the fleet spec, and the scheduling knobs never do.
func (s CampaignSpec) FleetSpec() (fleet.Spec, error) {
	var plan *faultinject.Plan
	if s.Faults != "" {
		p, err := faultinject.ParsePlan(s.Faults)
		if err != nil {
			return fleet.Spec{}, fmt.Errorf("fleetd: faults: %w", err)
		}
		plan = &p
	}
	fs := fleet.Spec{
		Devices:   s.Devices,
		Workers:   s.Workers,
		Seed:      s.Seed,
		Days:      float64(s.Days),
		Scale:     s.Scale,
		ReqBytes:  s.ReqBytes,
		StepBytes: s.StepBytes,
		Faults:    plan,
		WearTrace: s.WearTrace,
		Classes: []fleet.ClassWeight{
			{Class: fleet.ClassBenign, Weight: 1 - s.Buggy - s.Attack},
			{Class: fleet.ClassBuggy, Weight: s.Buggy},
			{Class: fleet.ClassAttack, Weight: s.Attack},
		},
	}.Defaults()
	if err := fs.Validate(); err != nil {
		return fleet.Spec{}, err
	}
	return fs, nil
}

// shardRange returns the device index range [lo, hi) owned by shard s of
// shards over n devices. Contiguous equal split: the partition depends
// only on (n, shards, s), never on scheduling, so any shard count covers
// the identical population.
func shardRange(n, shards, s int) (lo, hi int) {
	return s * n / shards, (s + 1) * n / shards
}

// epochDays returns the global day range [lo, hi) covered by epoch e
// (1-based) when every epoch spans every days and the horizon is days.
func epochDays(e, every, days int) (lo, hi int) {
	lo = (e - 1) * every
	hi = lo + every
	if hi > days {
		hi = days
	}
	return lo, hi
}

// epochCount returns how many epochs cover a days-long horizon.
func epochCount(every, days int) int {
	if every <= 0 || every >= days {
		return 1
	}
	return (days + every - 1) / every
}

// nsPerDay is one full-scale day in nanoseconds.
const nsPerDay = int64(24 * time.Hour)
