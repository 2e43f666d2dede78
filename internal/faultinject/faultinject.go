// Package faultinject provides deterministic, seed-driven fault plans for
// the simulated NAND: transient read ECC overflows, program failures, erase
// failures, and power cuts scheduled by operation count or simulated time.
//
// A Plan is pure specification — a value that can be parsed from a CLI
// flag, embedded in a fleet Spec, and re-seeded per device. An Injector is
// the per-device runtime built from a plan; it implements
// nand.FaultInjector and is shared by all of a device's chips so its
// operation counter covers the whole device. The same (plan, seed) always
// produces the same fault sequence for the same operation sequence, which
// is what makes crash/remount suites reproducible.
package faultinject

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"flashwear/internal/nand"
	"flashwear/internal/simrand"
	"flashwear/internal/telemetry"
)

// Plan is a declarative fault schedule. The zero value injects nothing.
type Plan struct {
	// Seed drives the probabilistic faults. Fleet runs derive a per-device
	// seed from this so devices fail independently but reproducibly.
	Seed int64
	// ReadFaultProb is the per-read probability of a transient
	// uncorrectable (ECC overflow) result. The data underneath is intact;
	// firmware read-retry usually recovers it.
	ReadFaultProb float64
	// ProgramFaultProb is the per-program probability of a program
	// failure (the page is consumed; firmware retries on the next page
	// and eventually retires the block).
	ProgramFaultProb float64
	// EraseFaultProb is the per-erase probability of an erase failure
	// (the block should be retired).
	EraseFaultProb float64
	// PowerCutOps lists absolute device operation counts at which power
	// is cut. Each fires once; power stays down until PowerRestored.
	PowerCutOps []int64
	// PowerCutEvery, when > 0, additionally cuts power every N operations.
	PowerCutEvery int64
	// PowerCutAt lists simulated times at which power is cut (requires a
	// clock; each fires once at the first operation at or after the mark).
	PowerCutAt []time.Duration
}

// Empty reports whether the plan injects nothing.
func (p Plan) Empty() bool {
	return p.ReadFaultProb == 0 && p.ProgramFaultProb == 0 && p.EraseFaultProb == 0 &&
		len(p.PowerCutOps) == 0 && p.PowerCutEvery == 0 && len(p.PowerCutAt) == 0
}

// WithSeed returns a copy of the plan with the seed replaced — the
// per-device derivation fleet runs use.
func (p Plan) WithSeed(seed int64) Plan {
	p.Seed = seed
	return p
}

// After returns a copy of the plan with time-scheduled power cuts at or
// before start removed. A resumed (or daily-rebooted) device builds a
// fresh Injector whose time cursor starts at zero; without this filter,
// every cut-time mark the previous boot already fired would fire again at
// the first operation of the new one.
func (p Plan) After(start time.Duration) Plan {
	var keep []time.Duration
	for _, at := range p.PowerCutAt {
		if at > start {
			keep = append(keep, at)
		}
	}
	p.PowerCutAt = keep
	return p
}

// Validate reports the first invalid field.
func (p Plan) Validate() error {
	check := func(name string, v float64) error {
		// The inverted form also rejects NaN, which compares false
		// against every bound and would otherwise slip through.
		if !(v >= 0 && v <= 1) {
			return fmt.Errorf("faultinject: %s = %g, want [0,1]", name, v)
		}
		return nil
	}
	if err := check("ReadFaultProb", p.ReadFaultProb); err != nil {
		return err
	}
	if err := check("ProgramFaultProb", p.ProgramFaultProb); err != nil {
		return err
	}
	if err := check("EraseFaultProb", p.EraseFaultProb); err != nil {
		return err
	}
	if p.PowerCutEvery < 0 {
		return fmt.Errorf("faultinject: PowerCutEvery = %d, want >= 0", p.PowerCutEvery)
	}
	for _, op := range p.PowerCutOps {
		if op <= 0 {
			return fmt.Errorf("faultinject: PowerCutOps entry %d, want > 0", op)
		}
	}
	for _, at := range p.PowerCutAt {
		if at <= 0 {
			return fmt.Errorf("faultinject: PowerCutAt entry %v, want > 0", at)
		}
	}
	return nil
}

// ParsePlan parses the CLI flag syntax: comma-separated key=value pairs
// with ';'-separated lists, e.g.
//
//	seed=7,read=1e-4,program=1e-5,erase=1e-5,cut-every=100000,cut-at=250000;700000,cut-time=24h;240h
//
// An empty string parses to the zero plan.
func ParsePlan(s string) (Plan, error) {
	var p Plan
	s = strings.TrimSpace(s)
	if s == "" {
		return p, nil
	}
	seen := make(map[string]bool)
	for _, field := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return p, fmt.Errorf("faultinject: %q: want key=value", field)
		}
		// A repeated scalar clause is a typo'd plan, not a refinement:
		// silently letting the last one win would make e.g.
		// "read=1e-3,read=1e-6" inject a thousandth of what the operator
		// reviewed. The list keys (cut-at, cut-time) may repeat; repeats
		// append, same as ';' within one clause.
		if seen[key] && key != "cut-at" && key != "cut-time" {
			return p, fmt.Errorf("faultinject: duplicate %q clause", key)
		}
		seen[key] = true
		var err error
		switch key {
		case "seed":
			p.Seed, err = strconv.ParseInt(val, 10, 64)
		case "read":
			p.ReadFaultProb, err = strconv.ParseFloat(val, 64)
		case "program":
			p.ProgramFaultProb, err = strconv.ParseFloat(val, 64)
		case "erase":
			p.EraseFaultProb, err = strconv.ParseFloat(val, 64)
		case "cut-every":
			p.PowerCutEvery, err = strconv.ParseInt(val, 10, 64)
		case "cut-at":
			for _, item := range strings.Split(val, ";") {
				var op int64
				if op, err = strconv.ParseInt(item, 10, 64); err != nil {
					break
				}
				p.PowerCutOps = append(p.PowerCutOps, op)
			}
		case "cut-time":
			for _, item := range strings.Split(val, ";") {
				var d time.Duration
				if d, err = time.ParseDuration(item); err != nil {
					break
				}
				p.PowerCutAt = append(p.PowerCutAt, d)
			}
		default:
			return p, fmt.Errorf("faultinject: unknown key %q (want seed, read, program, erase, cut-every, cut-at, cut-time)", key)
		}
		if err != nil {
			return p, fmt.Errorf("faultinject: %s: %v", key, err)
		}
	}
	if err := p.Validate(); err != nil {
		return p, err
	}
	return p, nil
}

// Stats counts what an injector has done.
type Stats struct {
	Ops           int64 // chip operations observed while powered
	ReadFaults    int64
	ProgramFaults int64
	EraseFaults   int64
	PowerCuts     int64
}

// Injector is the stateful per-device runtime of a Plan. It implements
// nand.FaultInjector; share one injector across a device's chips so the
// operation counter and power state cover the whole device. Not safe for
// concurrent use (devices are single-queue, like the chips).
type Injector struct {
	plan    Plan
	idle    bool // plan injects nothing: count the op and get out
	rng     *simrand.Rand
	clock   func() time.Duration // the device's, as New got it
	now     func() time.Duration // clock, or nil when the plan cuts at no time
	cutOps  []int64              // sorted copy of plan.PowerCutOps
	cutAt   []time.Duration      // sorted copy of plan.PowerCutAt
	cutIdx  int
	timeIdx int
	down    bool
	stats   Stats
}

// New builds an injector from a plan. now supplies simulated time for
// PowerCutAt scheduling; nil disables time-based cuts.
func New(plan Plan, now func() time.Duration) *Injector {
	j := &Injector{rng: simrand.New(plan.Seed), clock: now}
	j.reset(plan)
	return j
}

// Reset gives the injector another plan: it is then what New(plan, the
// same clock) builds, its random source reseeded in place and its
// schedules' storage kept — for a device stack handed to another device
// or another day.
func (j *Injector) Reset(plan Plan) {
	j.rng.Seed(plan.Seed)
	j.reset(plan)
}

func (j *Injector) reset(plan Plan) {
	*j = Injector{
		plan:   plan,
		idle:   plan.Empty(),
		rng:    j.rng,
		clock:  j.clock,
		now:    j.clock,
		cutOps: append(j.cutOps[:0], plan.PowerCutOps...),
		cutAt:  append(j.cutAt[:0], plan.PowerCutAt...),
	}
	if len(plan.PowerCutAt) == 0 {
		j.now = nil // never consult the clock when no time-based cuts exist
	}
	slices.Sort(j.cutOps)
	slices.Sort(j.cutAt)
}

// Inject implements nand.FaultInjector.
func (j *Injector) Inject(op nand.Op) nand.Fault {
	if j.down {
		return nand.FaultPowerCut
	}
	j.stats.Ops++
	if j.idle {
		// An empty plan keeps the op counter honest (CutNow can still fire
		// between ops) but must cost nothing on the chip's hot path.
		return nand.FaultNone
	}
	cut := false
	for j.cutIdx < len(j.cutOps) && j.stats.Ops >= j.cutOps[j.cutIdx] {
		cut = true
		j.cutIdx++
	}
	if e := j.plan.PowerCutEvery; e > 0 && j.stats.Ops%e == 0 {
		cut = true
	}
	if j.now != nil {
		now := j.now()
		for j.timeIdx < len(j.cutAt) && now >= j.cutAt[j.timeIdx] {
			cut = true
			j.timeIdx++
		}
	}
	if cut {
		j.cut()
		return nand.FaultPowerCut
	}
	switch op {
	case nand.OpRead:
		if p := j.plan.ReadFaultProb; p > 0 && j.rng.Float64() < p {
			j.stats.ReadFaults++
			return nand.FaultRead
		}
	case nand.OpProgram:
		if p := j.plan.ProgramFaultProb; p > 0 && j.rng.Float64() < p {
			j.stats.ProgramFaults++
			return nand.FaultProgram
		}
	case nand.OpErase:
		if p := j.plan.EraseFaultProb; p > 0 && j.rng.Float64() < p {
			j.stats.EraseFaults++
			return nand.FaultErase
		}
	}
	return nand.FaultNone
}

// Down implements nand.FaultInjector: power is currently cut.
func (j *Injector) Down() bool { return j.down }

// CutNow cuts power immediately, outside any schedule — what a test or a
// CLI -power-cut flag uses.
func (j *Injector) CutNow() {
	if !j.down {
		j.cut()
	}
}

func (j *Injector) cut() {
	j.down = true
	j.stats.PowerCuts++
}

// PowerRestored brings the device back up; the owner must then run FTL
// recovery before issuing I/O.
func (j *Injector) PowerRestored() { j.down = false }

// Stats returns a snapshot of injected-fault counters.
func (j *Injector) Stats() Stats { return j.stats }

// Instrument registers the injector's counters with reg under "fault.*".
// All pull-based pure observers, like the rest of the stack (DESIGN.md §7).
func (j *Injector) Instrument(reg *telemetry.Registry) {
	reg.CounterFunc("fault.ops", func() int64 { return j.stats.Ops })
	reg.CounterFunc("fault.read_faults", func() int64 { return j.stats.ReadFaults })
	reg.CounterFunc("fault.program_faults", func() int64 { return j.stats.ProgramFaults })
	reg.CounterFunc("fault.erase_faults", func() int64 { return j.stats.EraseFaults })
	reg.CounterFunc("fault.power_cuts", func() int64 { return j.stats.PowerCuts })
}
