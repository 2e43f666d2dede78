package fleetd

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"flashwear/internal/device"
	"flashwear/internal/faultinject"
	"flashwear/internal/fleet"
	"flashwear/internal/simclock"
)

// freshBirth is a device's first boot on a stack of its own — NewPhone
// under day 0's plan, then FirstBoot — the reference a birth on a reused
// worker stack must be indistinguishable from.
func freshBirth(t *testing.T, spec fleet.Spec, p fleet.Params) (*liveDev, bool) {
	t.Helper()
	ph, err := fleet.NewPhone(spec, p, dayPlan(spec, p, 0, 0), simclock.New())
	if err != nil {
		t.Fatal(err)
	}
	died, err := ph.FirstBoot()
	if err != nil {
		t.Fatal(err)
	}
	return &liveDev{Phone: ph}, died
}

// freshBoot is the nightly reboot on a stack of its own — NewPhone,
// import, reseed, restore, Reboot — the reference a reused worker stack
// must be indistinguishable from.
func freshBoot(t *testing.T, spec fleet.Spec, p fleet.Params, st *deviceState) (*liveDev, bool) {
	t.Helper()
	day := int64(st.DaysDone)
	clock := simclock.New()
	clock.Advance(st.Now)
	ph, err := fleet.NewPhone(spec, p, dayPlan(spec, p, st.DaysDone, st.Now), clock)
	if err != nil {
		t.Fatal(err)
	}
	f := ph.Dev.FTL()
	if err := f.MainChip().ImportState(st.Main); err != nil {
		t.Fatal(err)
	}
	f.MainChip().Reseed(fleet.MixSeed(p.Seed, day))
	if cc := f.CacheChip(); cc != nil {
		if err := cc.ImportState(st.Cache); err != nil {
			t.Fatal(err)
		}
		cc.Reseed(fleet.MixSeed(p.Seed, day) + 1)
	}
	f.RestoreStats(st.FTLStats, st.GCCopies)
	ph.Dev.RestoreCounters(st.BytesWritten, st.BytesRead, st.Busy)
	ld := &liveDev{Phone: ph}
	ld.prevLedger.Merge(st.Ledger)
	died, err := ph.Reboot(st.WorkStart, st.FSWrites, fleet.MixSeed(p.Seed+1, day))
	if err != nil {
		t.Fatal(err)
	}
	return ld, died
}

// reuseSpec mixes a hybrid eMMC 16GB, the BLU 4GB and the Moto E 8GB,
// benign and attacking, under a fault plan that cuts the heavy writers
// mid-day.
func reuseSpec(t *testing.T) fleet.Spec {
	t.Helper()
	plan, err := faultinject.ParsePlan("read=2e-4,cut-every=20000")
	if err != nil {
		t.Fatal(err)
	}
	return fleet.Spec{
		Devices: 256, Seed: 3, Scale: 4096, WearTrace: true, Faults: &plan,
		Profiles: []fleet.ProfileWeight{{Profile: device.ProfileEMMC16(), Weight: 1},
			{Profile: device.ProfileBLU4(), Weight: 1}, {Profile: device.ProfileMotoE8(), Weight: 1}},
		Classes: []fleet.ClassWeight{{Class: fleet.ClassBenign, Weight: 1}, {Class: fleet.ClassAttack, Weight: 1}},
	}.Defaults()
}

// pick returns the first device of the spec's population of the given
// model and class, skipping the first skip of them.
func pick(t *testing.T, spec fleet.Spec, model string, class fleet.Class, skip int) fleet.Params {
	t.Helper()
	for i := 0; i < spec.Devices; i++ {
		p := spec.Sample(i)
		if spec.Profiles[p.ProfileIndex()].Profile.Name == model && p.Class == class {
			if skip == 0 {
				return p
			}
			skip--
		}
	}
	t.Fatalf("no %s %s device in the population", model, class)
	return fleet.Params{}
}

// TestReusedStackEqualsFresh drives one worker through a sequence of
// device-days on different models and classes — a hybrid eMMC 16GB, a BLU
// 4GB attack phone that dies, and two Moto Es (benign and attacking) that
// take turns on one stack — booting each from the frame the worker
// encoded the night before, decoded into its arena. Every device is born
// on a stack another device of its model has already run a day on. Every
// day row, ledger and end-of-day frame must be byte-identical to fresh
// births and fresh boots from durable states.
func TestReusedStackEqualsFresh(t *testing.T) {
	spec := reuseSpec(t)
	type dev struct {
		p        fleet.Params
		ref, reu *liveDev
		refState *deviceState
		frame    []byte
		dead     bool
	}
	devs := []*dev{
		{p: pick(t, spec, device.ProfileEMMC16().Name, fleet.ClassBenign, 0)},
		{p: pick(t, spec, device.ProfileBLU4().Name, fleet.ClassAttack, 0)},
		{p: pick(t, spec, device.ProfileMotoE8().Name, fleet.ClassBenign, 0)},
		{p: pick(t, spec, device.ProfileMotoE8().Name, fleet.ClassAttack, 0)},
	}
	w := &worker{}
	// Dirty every model's stack first: an attack phone's day leaves worn
	// and written flash, a tracer ledger and, under the plan, power cuts.
	for _, model := range []string{device.ProfileEMMC16().Name, device.ProfileBLU4().Name, device.ProfileMotoE8().Name} {
		p := pick(t, spec, model, fleet.ClassAttack, 1)
		ph, err := w.stacks.Get(spec, p)
		if err != nil {
			t.Fatal(err)
		}
		ld, died, err := bear(ph, spec, p)
		if err == nil && !died {
			_, err = ld.runDay(0)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	const days = 12
	for day := 0; day < days; day++ {
		for _, d := range devs {
			if d.dead {
				continue
			}
			where := fmt.Sprintf("device %d (%s, %s) day %d", d.p.Index, spec.Profiles[d.p.ProfileIndex()].Profile.Name, d.p.Class, day)
			var refDied, reuDied bool
			var err error
			if day == 0 {
				d.ref, refDied = freshBirth(t, spec, d.p)
				ph, err := w.stacks.Get(spec, d.p)
				if err != nil {
					t.Fatal(err)
				}
				if d.reu, reuDied, err = bear(ph, spec, d.p); err != nil {
					t.Fatal(err)
				}
			} else {
				d.ref, refDied = freshBoot(t, spec, d.p, d.refState)
				st, err := decodeDevice(d.frame, &w.arena)
				if err != nil {
					t.Fatal(err)
				}
				ph, err := w.stacks.Get(spec, d.p)
				if err != nil {
					t.Fatal(err)
				}
				if d.reu, reuDied, err = boot(ph, spec, d.p, st); err != nil {
					t.Fatal(err)
				}
			}
			if !refDied {
				if refDied, err = d.ref.runDay(day); err != nil {
					t.Fatal(err)
				}
			}
			if !reuDied {
				if reuDied, err = d.reu.runDay(day); err != nil {
					t.Fatal(err)
				}
			}
			if refDied != reuDied {
				t.Fatalf("%s: died %v on a fresh stack, %v on the reused one", where, refDied, reuDied)
			}
			refRow, refLevel := d.ref.DayRow(refDied)
			reuRow, reuLevel := d.reu.DayRow(reuDied)
			if !reflect.DeepEqual(refRow, reuRow) || refLevel != reuLevel {
				t.Fatalf("%s: day row %v level %d fresh, %v level %d reused", where, refRow, refLevel, reuRow, reuLevel)
			}
			if a, b := d.ref.cumLedger(), d.reu.cumLedger(); !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: ledger %+v fresh, %+v reused", where, a, b)
			}
			if refDied {
				d.dead = true
				continue
			}
			var re codec
			re.deviceState(w.view(d.ref, day+1))
			if d.refState, err = decodeDevice(re.b, new(arena)); err != nil {
				t.Fatal(err)
			}
			w.e.b = w.e.b[:0]
			w.e.deviceState(w.view(d.reu, day+1))
			if !bytes.Equal(re.b, w.e.b) {
				t.Fatalf("%s: end-of-day frame differs between the fresh and the reused stack", where)
			}
			d.frame = append(d.frame[:0], w.e.b...)
		}
	}
	if !devs[1].dead {
		t.Errorf("the BLU 4GB attack phone survived %d days; the test wants its death on a reused stack", days)
	}
}

// TestNightAllocations pins the garbage-free night: one warmed worker's
// decode → import → boot → day → encode of a benign phone allocates at
// most nightAllocs times. What is left is the file system's mount and the
// working files' handles, the ledger snapshots and the booted-device
// record.
func TestNightAllocations(t *testing.T) {
	const nightAllocs = 50
	spec := reuseSpec(t)
	spec.Faults = nil
	p := pick(t, spec, device.ProfileMotoE8().Name, fleet.ClassBenign, 0)
	ld, died := freshBirth(t, spec, p)
	if died {
		t.Fatal("died at birth")
	}
	if _, err := ld.runDay(0); err != nil {
		t.Fatal(err)
	}
	w := &worker{}
	w.e.deviceState(w.view(ld, 1))
	day := 1
	night := func() {
		st, err := decodeDevice(w.e.b, &w.arena)
		if err != nil {
			t.Fatal(err)
		}
		ph, err := w.stacks.Get(spec, p)
		if err != nil {
			t.Fatal(err)
		}
		ld, died, err := boot(ph, spec, p, st)
		if err == nil && !died {
			died, err = ld.runDay(day)
		}
		if err != nil || died {
			t.Fatalf("day %d: died %v, %v", day, died, err)
		}
		day++
		w.e.b = w.e.b[:0]
		w.e.deviceState(w.view(ld, day))
	}
	for i := 0; i < 3; i++ {
		night() // warm the stack, the arena and the free lists
	}
	got := testing.AllocsPerRun(5, night)
	t.Logf("a warmed device-day allocates %.0f times", got)
	if got > nightAllocs {
		t.Errorf("a warmed device-day allocates %.0f times, want at most %d", got, nightAllocs)
	}
}

// TestDegradedCarryEqualsClean pins the degraded in-memory carry: a
// 2-worker campaign whose checkpoint creates fail past the retry budget
// carries its shards' end-of-epoch frames in memory, and must match a
// clean run and journal exactly one outage. The rows run one degraded
// epoch, one whose successor's first attempt fails too (at create, and
// at fsync after it streamed the carry, so the retry feeds the same
// carry again), two degraded epochs in a row, one of two shards
// degraded while the other writes, and a degraded shard with no device
// left alive, whose carry is empty. make race runs this under the race
// detector.
func TestDegradedCarryEqualsClean(t *testing.T) {
	// With three attempts per cell, failing creates from..until-1 land
	// on the cells in order: epoch 1 of shard 0 is create 1.
	for _, tc := range []struct {
		name   string
		shards int
		faults string
		plan   string
	}{
		// Epoch 2 spends creates 2..4 and runs degraded; epoch 3 writes
		// from the carry.
		{"middle-epoch", 1, "", "class=checkpoint,fault=enospc,on=create,from=2,until=5"},
		// Epoch 3's first create fails too, before its producer reads the
		// carry; the retry reads it.
		{"retry-at-create", 1, "", "class=checkpoint,fault=enospc,on=create,from=2,until=6"},
		// Epoch 3's first attempt streams the carry, then its fsync fails:
		// the retry feeds the same carry again.
		{"retry-refeeds-carry", 1, "", "class=checkpoint,fault=enospc,on=create,from=2,until=5|class=checkpoint,fault=eio,on=sync,at=2"},
		// Epochs 2 and 3 both degrade; epoch 4 writes from a carry made
		// from a carry.
		{"two-degraded-epochs", 1, "", "class=checkpoint,fault=enospc,on=create,from=2,until=8"},
		// Epoch 2: shard 0 degrades, shard 1 writes its cell.
		{"one-of-two-shards", 2, "", "class=checkpoint,fault=enospc,on=create,from=3,until=6"},
		// Every device dies on day 0, so epoch 2 carries no frames.
		{"empty-carry", 1, "cut-every=200", "class=checkpoint,fault=enospc,on=create,from=2,until=5"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := tinySpec()
			spec.Shards, spec.Workers, spec.CheckpointEvery, spec.Days = tc.shards, 2, 1, 4
			if tc.faults != "" {
				spec.Seed, spec.Faults = 1, tc.faults
			}
			ref := fingerprint(t, runToEnd(t, t.TempDir(), spec))
			m, _ := tortureManager(t, t.TempDir(), tc.plan)
			c, err := m.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Wait(); err != nil {
				t.Fatal(err)
			}
			if got := fingerprint(t, c); !bytes.Equal(got, ref) {
				t.Errorf("results with a degraded epoch differ from a clean run\nref:\n%s\ngot:\n%s", ref, got)
			}
			if types := eventTypes(c); types["checkpoint_paused"] != 1 || types["checkpoint_resumed"] != 1 {
				t.Errorf("events %v: want one checkpoint_paused and one checkpoint_resumed", types)
			}
		})
	}
}
