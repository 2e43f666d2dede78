package faultinject

import (
	"slices"
	"strings"
	"testing"
	"time"

	"flashwear/internal/nand"
	"flashwear/internal/telemetry"
)

func TestParsePlan(t *testing.T) {
	p, err := ParsePlan("seed=7,read=1e-4,program=2e-5,erase=3e-5,cut-every=100000,cut-at=250000;700000,cut-time=24h;240h")
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 7 || p.ReadFaultProb != 1e-4 || p.ProgramFaultProb != 2e-5 || p.EraseFaultProb != 3e-5 {
		t.Fatalf("probs: %+v", p)
	}
	if p.PowerCutEvery != 100000 {
		t.Fatalf("PowerCutEvery = %d", p.PowerCutEvery)
	}
	if len(p.PowerCutOps) != 2 || p.PowerCutOps[0] != 250000 || p.PowerCutOps[1] != 700000 {
		t.Fatalf("PowerCutOps = %v", p.PowerCutOps)
	}
	if len(p.PowerCutAt) != 2 || p.PowerCutAt[0] != 24*time.Hour || p.PowerCutAt[1] != 240*time.Hour {
		t.Fatalf("PowerCutAt = %v", p.PowerCutAt)
	}

	if p, err := ParsePlan(""); err != nil || !p.Empty() {
		t.Fatalf("empty string: %+v, %v", p, err)
	}
	for _, bad := range []string{"read", "read=2", "read=-1", "bogus=1", "cut-every=-3", "cut-at=0", "cut-time=-1h"} {
		if _, err := ParsePlan(bad); err == nil {
			t.Errorf("ParsePlan(%q): want error", bad)
		}
	}
}

func TestParsePlanErrors(t *testing.T) {
	cases := []struct {
		in   string
		want string // substring the error must contain
	}{
		// Malformed values: the strconv/ParseDuration error must surface
		// with the offending key.
		{"read=abc", "read"},
		{"program=1e", "program"},
		{"erase=", "erase"},
		{"seed=7.5", "seed"},
		{"cut-every=ten", "cut-every"},
		{"cut-at=100;x;300", "cut-at"},
		{"cut-time=24h;soon", "cut-time"},
		// Out-of-range values rejected by Validate after parsing.
		{"read=1.5", "ReadFaultProb"},
		{"program=-0.1", "ProgramFaultProb"},
		{"erase=2", "EraseFaultProb"},
		// Missing '=' and unknown keys.
		{"seed", "key=value"},
		{"seed=1,,read=1e-4", "key=value"},
		{"foo=1", `unknown key "foo"`},
		{"Read=1e-4", `unknown key "Read"`}, // keys are case-sensitive
		// Duplicate scalar clauses: the last-one-wins trap.
		{"read=1e-3,read=1e-6", `duplicate "read"`},
		{"seed=1,seed=2", `duplicate "seed"`},
		{"program=1e-5,program=1e-5", `duplicate "program"`},
		{"erase=1e-5,erase=2e-5", `duplicate "erase"`},
		{"cut-every=5,cut-every=6", `duplicate "cut-every"`},
	}
	for _, tc := range cases {
		_, err := ParsePlan(tc.in)
		if err == nil {
			t.Errorf("ParsePlan(%q): want error containing %q, got nil", tc.in, tc.want)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ParsePlan(%q) = %v, want error containing %q", tc.in, err, tc.want)
		}
	}
}

func TestParsePlanRepeatedListClauses(t *testing.T) {
	// The list keys may repeat: repeats append, exactly like ';' within a
	// single clause. Only the scalar keys are duplicate-checked.
	p, err := ParsePlan("cut-at=100,cut-at=200;300,cut-time=1h,cut-time=2h")
	if err != nil {
		t.Fatal(err)
	}
	if want := []int64{100, 200, 300}; len(p.PowerCutOps) != 3 ||
		p.PowerCutOps[0] != want[0] || p.PowerCutOps[1] != want[1] || p.PowerCutOps[2] != want[2] {
		t.Fatalf("PowerCutOps = %v, want %v", p.PowerCutOps, want)
	}
	if len(p.PowerCutAt) != 2 || p.PowerCutAt[0] != time.Hour || p.PowerCutAt[1] != 2*time.Hour {
		t.Fatalf("PowerCutAt = %v", p.PowerCutAt)
	}
}

func TestInjectorDeterminism(t *testing.T) {
	plan := Plan{Seed: 42, ReadFaultProb: 0.05, ProgramFaultProb: 0.02, EraseFaultProb: 0.02}
	run := func() []nand.Fault {
		j := New(plan, nil)
		var out []nand.Fault
		for i := 0; i < 5000; i++ {
			out = append(out, j.Inject(nand.Op(i%3)))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d: %v != %v", i, a[i], b[i])
		}
	}
	j := New(plan, nil)
	faults := 0
	for i := 0; i < 5000; i++ {
		if j.Inject(nand.Op(i%3)) != nand.FaultNone {
			faults++
		}
	}
	if faults == 0 {
		t.Fatal("no faults injected at these probabilities")
	}
	s := j.Stats()
	if int(s.ReadFaults+s.ProgramFaults+s.EraseFaults) != faults {
		t.Fatalf("stats %+v vs %d observed", s, faults)
	}
}

func TestInjectorEmptyPlanConsumesNoRNG(t *testing.T) {
	// An empty plan must never fault and must not draw from its RNG, so
	// enabling the injector with a no-op plan cannot perturb anything.
	j := New(Plan{Seed: 1}, nil)
	for i := 0; i < 10000; i++ {
		if f := j.Inject(nand.Op(i % 3)); f != nand.FaultNone {
			t.Fatalf("op %d: fault %v from empty plan", i, f)
		}
	}
	before := j.rng.Int63()
	want := New(Plan{Seed: 1}, nil).rng.Int63()
	if before != want {
		t.Fatal("empty plan consumed injector RNG")
	}
}

func TestInjectorPowerCutSchedules(t *testing.T) {
	j := New(Plan{PowerCutOps: []int64{5, 3}}, nil) // unsorted on purpose
	for i := int64(1); i < 3; i++ {
		if f := j.Inject(nand.OpRead); f != nand.FaultNone {
			t.Fatalf("op %d: %v", i, f)
		}
	}
	if f := j.Inject(nand.OpRead); f != nand.FaultPowerCut {
		t.Fatalf("op 3: %v, want power cut", f)
	}
	if !j.Down() {
		t.Fatal("not down after cut")
	}
	// Latched: everything fails without consuming ops.
	if f := j.Inject(nand.OpProgram); f != nand.FaultPowerCut {
		t.Fatalf("while down: %v", f)
	}
	if got := j.Stats().Ops; got != 3 {
		t.Fatalf("ops = %d, want 3 (down ops don't count)", got)
	}
	j.PowerRestored()
	if j.Down() {
		t.Fatal("still down after restore")
	}
	// ops resumes at 4; next cut at op 5.
	if f := j.Inject(nand.OpRead); f != nand.FaultNone {
		t.Fatalf("op 4: %v", f)
	}
	if f := j.Inject(nand.OpRead); f != nand.FaultPowerCut {
		t.Fatal("op 5: want second scheduled cut")
	}
	j.PowerRestored()
	if f := j.Inject(nand.OpRead); f != nand.FaultNone {
		t.Fatal("schedule exhausted, want no more cuts")
	}
	if got := j.Stats().PowerCuts; got != 2 {
		t.Fatalf("PowerCuts = %d, want 2", got)
	}
}

func TestInjectorPowerCutEvery(t *testing.T) {
	j := New(Plan{PowerCutEvery: 4}, nil)
	cuts := 0
	for i := 0; i < 12; i++ {
		if j.Inject(nand.OpRead) == nand.FaultPowerCut {
			cuts++
			j.PowerRestored()
		}
	}
	if cuts != 3 {
		t.Fatalf("cuts = %d, want 3 (every 4 of 12 ops)", cuts)
	}
}

func TestInjectorPowerCutAtTime(t *testing.T) {
	now := time.Duration(0)
	j := New(Plan{PowerCutAt: []time.Duration{10 * time.Hour}}, func() time.Duration { return now })
	if f := j.Inject(nand.OpRead); f != nand.FaultNone {
		t.Fatalf("before mark: %v", f)
	}
	now = 11 * time.Hour
	if f := j.Inject(nand.OpRead); f != nand.FaultPowerCut {
		t.Fatalf("after mark: %v, want power cut", f)
	}
	j.PowerRestored()
	if f := j.Inject(nand.OpRead); f != nand.FaultNone {
		t.Fatal("time cut must fire once")
	}
}

// TestInjectorUnsortedCutTime: cut-time marks fire in time order whatever
// order the plan lists them in, so an earlier mark listed last is not
// held back behind a later one.
func TestInjectorUnsortedCutTime(t *testing.T) {
	p, err := ParsePlan("cut-time=240h;24h")
	if err != nil {
		t.Fatal(err)
	}
	now := time.Duration(0)
	j := New(p, func() time.Duration { return now })
	for _, step := range []struct {
		at   time.Duration
		want nand.Fault
	}{
		{12 * time.Hour, nand.FaultNone},
		{25 * time.Hour, nand.FaultPowerCut}, // the 24h mark
		{100 * time.Hour, nand.FaultNone},
		{241 * time.Hour, nand.FaultPowerCut}, // the 240h mark
		{300 * time.Hour, nand.FaultNone},
	} {
		now = step.at
		if f := j.Inject(nand.OpRead); f != step.want {
			t.Fatalf("at %v: %v, want %v", step.at, f, step.want)
		}
		j.PowerRestored()
	}
}

func TestInjectorCutNow(t *testing.T) {
	j := New(Plan{}, nil)
	j.CutNow()
	j.CutNow() // idempotent while down
	if !j.Down() || j.Stats().PowerCuts != 1 {
		t.Fatalf("down=%v cuts=%d", j.Down(), j.Stats().PowerCuts)
	}
}

func TestInjectorInstrument(t *testing.T) {
	reg := telemetry.NewRegistry()
	j := New(Plan{ReadFaultProb: 1}, nil)
	j.Instrument(reg)
	j.Inject(nand.OpRead)
	snap := reg.Snapshot(0)
	for name, want := range map[string]int64{"fault.ops": 1, "fault.read_faults": 1, "fault.power_cuts": 0} {
		i := slices.IndexFunc(snap.Points, func(p telemetry.Point) bool { return p.Name == name })
		if i < 0 {
			t.Fatalf("missing instrument %s", name)
		}
		if got := snap.Points[i].Int; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestInjectorResetMatchesNew pins Reset: an injector that ran one plan
// and is reset to another injects exactly what a new one built from the
// second plan injects, cuts, power state and counters included.
func TestInjectorResetMatchesNew(t *testing.T) {
	var now time.Duration
	clock := func() time.Duration { return now }
	first := Plan{Seed: 1, ReadFaultProb: 0.3, PowerCutOps: []int64{40, 7}, PowerCutAt: []time.Duration{time.Second}}
	second := Plan{Seed: 2, ReadFaultProb: 0.1, ProgramFaultProb: 0.05, EraseFaultProb: 0.2,
		PowerCutOps: []int64{900, 300}, PowerCutEvery: 777, PowerCutAt: []time.Duration{3 * time.Second, 2 * time.Second}}
	reused := New(first, clock)
	for i := 0; i < 500; i++ {
		now += time.Millisecond
		reused.Inject(nand.Op(i % 3))
		if reused.Down() {
			reused.PowerRestored()
		}
	}
	now = 0
	reused.Reset(second)
	fresh := New(second, clock)
	for i := 0; i < 5000; i++ {
		now += time.Millisecond
		op := nand.Op(i % 3)
		if got, want := reused.Inject(op), fresh.Inject(op); got != want {
			t.Fatalf("op %d: reset injector %v, new injector %v", i, got, want)
		}
		if reused.Down() != fresh.Down() {
			t.Fatalf("op %d: power state differs", i)
		}
		if fresh.Down() {
			reused.PowerRestored()
			fresh.PowerRestored()
		}
	}
	if reused.Stats() != fresh.Stats() {
		t.Errorf("stats %+v after Reset, %+v new", reused.Stats(), fresh.Stats())
	}
}
