package fleetd

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"flashwear/internal/fleet"
	"flashwear/internal/obs"
)

// simFingerprint renders the campaign's sim-domain journal events —
// alerts and brick milestones — stripped of their ops envelope
// (Seq/WallMs), in journal order. This is the determinism oracle for the
// alert evaluator: byte equality across scheduling variants and resume.
func simFingerprint(c *Campaign) []byte {
	var buf bytes.Buffer
	for _, e := range c.Events(0) {
		if e.Sim {
			buf.WriteString(e.SimString())
			buf.WriteByte('\n')
		}
	}
	return buf.Bytes()
}

// alertSpec is a population that actually fires alerts: with 4 devices
// over 10 days, one bricks and one goes read-only, crossing the
// brick-rate, PRE_EOL, and milestone thresholds.
func alertSpec() CampaignSpec {
	spec := tinySpec()
	spec.Days = 10
	return spec
}

// TestAlertEventInvariance pins the ISSUE 7 acceptance criterion: the
// sim-domain alert events are byte-identical across seeds x shards x
// workers x checkpoint cadence, while /metrics (ops-domain) is free to
// differ and is excluded. The reference run is in-memory single-epoch;
// every on-disk scheduling variant must match it exactly.
func TestAlertEventInvariance(t *testing.T) {
	for _, seed := range []int64{7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			base := alertSpec()
			base.Seed = seed
			ref := simFingerprint(runToEnd(t, "", base))
			if len(ref) == 0 {
				t.Fatal("reference run fired no sim events; the fixture spec must brick devices for this test to mean anything")
			}
			for _, v := range []struct {
				name            string
				shards, workers int
				every           int
			}{
				{"w1s1-nockpt", 1, 1, 0},
				{"w4s3-e2", 3, 4, 2},
				{"w2s2-e1", 2, 2, 1},
				{"w1s4-e3", 4, 1, 3},
			} {
				spec := base
				spec.Shards = v.shards
				spec.Workers = v.workers
				spec.CheckpointEvery = v.every
				got := simFingerprint(runToEnd(t, t.TempDir(), spec))
				if !bytes.Equal(got, ref) {
					t.Errorf("%s: sim events differ from reference\nref:\n%s\ngot:\n%s", v.name, ref, got)
				}
			}
		})
	}
}

// TestAlertEventsSurviveResume pins the crash/resume contract for the
// journal: pause mid-run, adopt the directory with a fresh manager (a
// restarted process), resume, and require (a) the same sim events as an
// uninterrupted run with no duplicates — the fired-set is rebuilt from
// the journal — and (b) a contiguous sequence numbering across the
// process boundary.
func TestAlertEventsSurviveResume(t *testing.T) {
	spec := alertSpec()
	spec.Shards = 2
	spec.Workers = 2
	spec.CheckpointEvery = 1

	ref := simFingerprint(runToEnd(t, t.TempDir(), spec))

	dir := t.TempDir()
	m1, err := NewManager(dir)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	c1, err := m1.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	c1.Pause()

	m2, err := NewManager(dir)
	if err != nil {
		t.Fatalf("adopting manager: %v", err)
	}
	c2, ok := m2.Get(c1.ID())
	if !ok {
		t.Fatalf("campaign %s not adopted", c1.ID())
	}
	if err := c2.Resume(); err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if err := c2.Wait(); err != nil {
		t.Fatalf("resumed campaign failed: %v", err)
	}

	if got := simFingerprint(c2); !bytes.Equal(got, ref) {
		t.Errorf("sim events after resume differ (duplicate or missing alerts)\nref:\n%s\ngot:\n%s", ref, got)
	}
	evs := c2.Events(0)
	if len(evs) == 0 {
		t.Fatal("no events after resume")
	}
	for i, e := range evs {
		if e.Seq != uint64(i)+1 {
			t.Fatalf("event %d has seq %d, want %d (gap or duplicate across restart)", i, e.Seq, i+1)
		}
	}
	// The journal crossed a process boundary: it must hold the lifecycle
	// trail of both processes.
	var types []string
	for _, e := range evs {
		types = append(types, e.Type)
	}
	joined := strings.Join(types, " ")
	for _, want := range []string{"submitted", "adopted", "resumed", "done"} {
		if !strings.Contains(joined, want) {
			t.Errorf("journal missing %q event; have: %s", want, joined)
		}
	}
}

// TestAlertScanRules unit-tests the evaluator against synthetic day rows:
// edge triggering, milestone crossings, and fired-set dedup.
func TestAlertScanRules(t *testing.T) {
	row := func(bricked, readOnly, host, flash, rber int64) []int64 {
		r := make([]int64, fleet.DayCols)
		r[fleet.ColDevices] = 1000
		r[fleet.ColBricked] = bricked
		r[fleet.ColReadOnly] = readOnly
		r[fleet.ColHostBytes] = host
		r[fleet.ColFlashBytes] = flash
		r[fleet.ColRawBERFemto] = rber
		return r
	}
	const dev = 1000
	rows := [][]int64{
		// day 1: quiet baseline.
		row(0, 0, 100, 150, 5_000_000_000_000),
		// day 2: 10 new bricks (1% >= 0.5%) -> brick_rate; count_1, count_10, pct_1.
		row(10, 0, 200, 250, 5_000_000_000_000),
		// day 3: still 10 bricked (no new) -> no re-fire; WA spike 300/100 -> wa_spike;
		// rber doubles past 1e-6/device -> rber_trend.
		row(10, 0, 300, 650, 11_000_000_000_000),
		// day 4: 60 read-only (6% >= 5%) -> pre_eol_pct; WA back to normal.
		row(10, 60, 400, 780, 11_000_000_000_000),
	}
	a := newAlertState()
	var got []string
	for _, ev := range a.scan(rows, dev) {
		got = append(got, fmt.Sprintf("%s:%s:day%d", ev.typ, ev.rule, ev.day))
	}
	want := []string{
		"alert:brick_rate:day2",
		"brick_milestone:count_1:day2",
		"brick_milestone:count_10:day2",
		"brick_milestone:pct_1:day2",
		"alert:wa_spike:day3",
		"alert:rber_trend:day3",
		"alert:pre_eol_pct:day4",
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("scan findings = %v, want %v", got, want)
	}
	// A re-scan of the same rows (the idempotent sweep re-walking epochs)
	// must find nothing new.
	if again := a.scan(rows, dev); len(again) != 0 {
		t.Errorf("re-scan fired %d duplicate events", len(again))
	}
	// Seeding a fresh state from journaled sim events suppresses them too.
	b := newAlertState()
	var evs []obs.Event
	for _, ev := range newAlertState().scan(rows, dev) {
		evs = append(evs, ev.event())
	}
	b.seed(evs)
	if again := b.scan(rows, dev); len(again) != 0 {
		t.Errorf("seeded state re-fired %d events", len(again))
	}
}
