package fleet

import (
	"bytes"
	"context"
	"testing"

	"flashwear/internal/simclock"
	"flashwear/internal/wtrace"
)

// TestFleetWearDeterminism pins the fleet ledger contract: with
// Spec.WearTrace on, the merged per-origin ledger (fleetsim -wear-trace)
// is byte-identical across worker counts, every workload class shows up as
// an origin with real wear, and write amplification is visible in the
// totals (phys >= host). The merge is integer-additive by origin name, so
// scheduling must not leak into the CSV. Both runs also pin the Progress
// callback fleetsim's displays read: every device reported once, brick
// tallies equal to the aggregate's.
func TestFleetWearDeterminism(t *testing.T) {
	ctx := context.Background()
	run := func(workers int) (*Result, string) {
		t.Helper()
		spec := testSpec(workers)
		spec.WearTrace = true
		var progress progressLog
		spec.Progress = progress.record
		res, err := Run(ctx, spec)
		if err != nil {
			t.Fatalf("Run(workers=%d): %v", workers, err)
		}
		progress.check(t, res, 64)
		if res.Wear == nil {
			t.Fatalf("Run(workers=%d): traced run has nil Wear snapshot", workers)
		}
		var buf bytes.Buffer
		if err := res.Wear.WriteCSV(&buf); err != nil {
			t.Fatalf("WriteCSV: %v", err)
		}
		return res, buf.String()
	}

	res1, csv1 := run(1)
	_, csv4 := run(4)
	if csv1 != csv4 {
		t.Fatalf("wear CSV differs between 1 and 4 workers:\n--- workers=1\n%s\n--- workers=4\n%s", csv1, csv4)
	}

	rows := map[string]wtrace.Row{}
	for _, r := range res1.Wear.Rows {
		rows[r.Origin] = r
	}
	for _, class := range []string{"benign", "buggy", "attack"} {
		r, ok := rows[class]
		if !ok || r.HostPages == 0 || r.PhysPages == 0 {
			t.Errorf("class %q: missing or empty ledger row: %+v", class, r)
		}
	}
	if rows["os"].PhysPages == 0 {
		t.Error("os origin has no wear; mkfs/format attribution lost")
	}
	tot := res1.Wear.Totals()
	if tot.PhysPages < tot.HostPages {
		t.Errorf("phys pages %d < host pages %d; WA below 1 is impossible", tot.PhysPages, tot.HostPages)
	}
	for _, r := range res1.Wear.Rows {
		if causes := r.HostPrograms + r.GCPrograms + r.WLPrograms + r.CachePrograms; r.PhysPages != causes {
			t.Errorf("origin %q: phys_pages %d != cause sum %d", r.Origin, r.PhysPages, causes)
		}
	}
}

// TestFirstBootWearOrigins pins where a first boot's writes are charged
// with Spec.WearTrace on: mkfs runs untagged, on origin "os", and the
// working files' fill goes through the workload's tagged file system, so
// the fill lands on the device's class row, not on "os".
func TestFirstBootWearOrigins(t *testing.T) {
	spec := testSpec(1)
	spec.Seed, spec.Scale, spec.WearTrace = 3, 4096, true
	spec = spec.Defaults()
	p := spec.Sample(0)
	ph, err := NewPhone(spec, p, nil, simclock.New())
	if err != nil {
		t.Fatal(err)
	}
	if died, err := ph.FirstBoot(); err != nil || died {
		t.Fatalf("FirstBoot: died %v, %v", died, err)
	}
	rows := map[string]wtrace.Row{}
	snap := ph.Dev.WearTracer().Snapshot()
	for _, r := range snap.Rows {
		rows[r.Origin] = r
	}
	class, osRow := rows[p.Class.String()], rows["os"]
	fill := int64(ph.set.NumFiles) * ph.set.FileSize / snap.PageSize
	t.Logf("after FirstBoot: %s %d host pages, os %d, fill %d", p.Class, class.HostPages, osRow.HostPages, fill)
	if class.HostPages < fill {
		t.Errorf("class %q row has %d host pages, want at least the fill's %d", p.Class, class.HostPages, fill)
	}
	if osRow.HostPages == 0 || osRow.HostPages >= fill {
		t.Errorf("os row has %d host pages, want mkfs's: more than 0, fewer than the fill's %d", osRow.HostPages, fill)
	}
}
