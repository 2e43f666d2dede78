package fleet

import (
	"context"
	"reflect"
	"testing"
	"time"

	"flashwear/internal/device"
	"flashwear/internal/faultinject"
	"flashwear/internal/simclock"
)

// rebirthSpec is fleet_batch's population — the Moto E 8GB and the BLU
// 4GB, benign, buggy and attacking — plus a hybrid eMMC 16GB, derated as
// in testSpec so the heavy writers die within the horizon, with metrics,
// wear tracing and a fault plan that cuts and faults the devices.
func rebirthSpec(t *testing.T) Spec {
	t.Helper()
	plan, err := faultinject.ParsePlan("seed=5,read=2e-4,program=1e-5,cut-every=20000")
	if err != nil {
		t.Fatal(err)
	}
	blu, moto, emmc := device.ProfileBLU4(), device.ProfileMotoE8(), device.ProfileEMMC16()
	blu.RatedPE, moto.RatedPE = 150, 300
	return Spec{
		Devices: 24, Seed: 11, Days: 6, Scale: 8192, ReqBytes: 4096,
		MetricsEvery: 24 * time.Hour, WearTrace: true, Faults: &plan,
		Profiles: []ProfileWeight{{moto, 1}, {blu, 1}, {emmc, 1}},
		Classes:  []ClassWeight{{ClassBenign, 1}, {ClassBuggy, 1}, {ClassAttack, 1}},
	}.Defaults()
}

// TestRebirthEqualsNewPhone is the birth oracle: one worker's stacks carry
// the whole population, device after device, every model's stack passing
// from benign to buggy to attacking phones and from dead ones to new ones,
// and every device's result — its outcome, metric rows and wear ledger —
// must be what the same device gives on a stack NewPhone built for it.
// make race runs it: the stacks are per-worker state that lives across
// devices.
func TestRebirthEqualsNewPhone(t *testing.T) {
	spec := rebirthSpec(t)
	ctx := context.Background()
	var stacks Stacks
	var died, models, classes [3]int
	for i := 0; i < spec.Devices; i++ {
		p := spec.Sample(i)
		ph, err := NewPhone(spec, p, devicePlan(spec, p), simclock.New())
		if err != nil {
			t.Fatal(err)
		}
		ref, err := simulate(ctx, spec, ph)
		if err != nil {
			t.Fatal(err)
		}
		reu, err := simulateDevice(ctx, spec, p, &stacks)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref, reu) {
			t.Fatalf("device %d (%s, %s): %+v on a new stack, %+v reborn", i, ref.ProfileName, p.Class, ref, reu)
		}
		models[p.profile]++
		classes[p.Class]++
		if ref.Bricked {
			died[p.profile]++
		}
	}
	for m := range models {
		if models[m] < 2 || classes[m] == 0 {
			t.Fatalf("models %v, classes %v: every model needs a reborn stack and every class a device", models, classes)
		}
	}
	if died[0]+died[1] == 0 {
		t.Fatal("no fleet_batch model died, so no birth followed a death")
	}
}

// TestBirthAllocations pins a birth that builds nothing: on a warmed
// stack, Rebirth and FirstBoot — format, mkfs, mount into the previous
// volume and the working files' fill — allocate at most birthAllocs
// times. What is left is the file set, its handles and names, and the
// inodes and metadata blocks the new volume reads in.
func TestBirthAllocations(t *testing.T) {
	const birthAllocs = 66
	spec := rebirthSpec(t)
	spec.Faults = nil
	var p Params
	for i := 0; ; i++ {
		if p = spec.Sample(i); p.profile == 0 && p.Class == ClassBenign {
			break
		}
	}
	var stacks Stacks
	ph, err := stacks.Get(spec, p)
	if err != nil {
		t.Fatal(err)
	}
	birth := func() {
		if err := ph.Rebirth(p, nil); err != nil {
			t.Fatal(err)
		}
		if died, err := ph.FirstBoot(); err != nil || died {
			t.Fatalf("birth: died %v, %v", died, err)
		}
	}
	for i := 0; i < 3; i++ {
		birth() // warm the stack, its free lists and the volume's tables
	}
	got := testing.AllocsPerRun(5, birth)
	t.Logf("a birth on a warmed stack allocates %.0f times", got)
	if got > birthAllocs {
		t.Errorf("a birth on a warmed stack allocates %.0f times, want at most %d", got, birthAllocs)
	}
}
