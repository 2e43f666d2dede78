package fleetd

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"flashwear/internal/fleet"
	"flashwear/internal/hostio"
)

// fingerprint renders everything the determinism contract covers: the
// day series CSV, the ledger CSV, and the aggregate JSON. Byte equality
// of fingerprints is the test oracle throughout this file.
func fingerprint(t *testing.T, c *Campaign) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.Series().WriteCSV(&buf); err != nil {
		t.Fatalf("series CSV: %v", err)
	}
	if err := c.Ledger().WriteCSV(&buf); err != nil {
		t.Fatalf("ledger CSV: %v", err)
	}
	agg, final := c.Aggregate()
	raw, err := json.MarshalIndent(agg, "", " ")
	if err != nil {
		t.Fatalf("aggregate JSON: %v", err)
	}
	fmt.Fprintf(&buf, "final=%v\n", final)
	buf.Write(raw)
	return buf.Bytes()
}

// survivorRecoveries reads the final checkpoint cells of disk-backed
// campaign c and returns how many devices they hold, the survivors, and
// the sum of their FTLs' lifetime power-loss recoveries.
func survivorRecoveries(t *testing.T, c *Campaign) (devices int, recoveries int64) {
	t.Helper()
	epoch := epochCount(c.epochLen(), c.spec.Days)
	for shard := 0; shard < max(c.spec.Shards, 1); shard++ {
		r, err := openCell(hostio.OS{}, cellPath(c.dir, shard, epoch), newCellBufs())
		if err != nil {
			t.Fatal(err)
		}
		var a arena
		_, err = r.frames(func(payload []byte) error {
			st, err := decodeDevice(payload, &a)
			if err == nil {
				devices++
				recoveries += st.FTLStats.Recoveries
			}
			return err
		})
		r.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	return devices, recoveries
}

// TestSchedulingInvariance pins the core contract: shards, workers, and
// checkpoint cadence are invisible in the results. Every variant —
// including the in-memory single-epoch run — must produce byte-identical
// series, ledger, and aggregate. The golden hashes anchor the reference
// run itself: the variants only compare a faulted campaign with itself, so
// without them a change to boot, remount, pacing or death rules that moved
// every variant alike would pass.
func TestSchedulingInvariance(t *testing.T) {
	for _, tc := range []struct {
		seed           int64
		faults, golden string
		midDayCuts     bool
	}{
		{1, "read=2e-4,cut-every=3000000", "b9b3fc3b6b4c7f7c055a51e2d755f40d6a39e1d11595b5be593c21ff00c3d655", false},
		{42, "read=2e-4,cut-every=3000000", "279d27cfd5e149b6bbced6e66c4cdbe3b4eb92c6f8b171a7020ed2256441ee8b", false},
		// Every boot restarts the plan's operation count, so the plan
		// above never reaches a cut inside one scaled day; this one cuts
		// the heavy writers mid-day, hundreds of times over the campaign.
		{7, "read=2e-4,cut-every=20000", "6ae6133a3af1ea860559ff25e491051a8a36e5196af757516b3399c65a20c60e", true},
	} {
		tc := tc
		t.Run(fmt.Sprintf("seed%d", tc.seed), func(t *testing.T) {
			base := tinySpec()
			base.Seed = tc.seed
			base.Faults = tc.faults
			ref := fingerprint(t, runToEnd(t, "", base))
			if got := fmt.Sprintf("%x", sha256.Sum256(ref)); got != tc.golden {
				t.Errorf("reference fingerprint hash = %s, want %s", got, tc.golden)
			}
			for _, v := range []struct {
				name            string
				shards, workers int
				every           int
				disk            bool
			}{
				{"w1s1-nockpt", 1, 1, 0, true},
				{"w4s3-e2", 3, 4, 2, true},
				{"w2s2-e1", 2, 2, 1, true},
				{"w1s4-e3", 4, 1, 3, true},
			} {
				spec := base
				spec.Shards = v.shards
				spec.Workers = v.workers
				spec.CheckpointEvery = v.every
				dir := ""
				if v.disk {
					dir = t.TempDir()
				}
				c := runToEnd(t, dir, spec)
				if tc.midDayCuts && v.name == "w1s1-nockpt" {
					// The nightly reboots alone recover each survivor's
					// FTL days-1 times.
					devices, n := survivorRecoveries(t, c)
					if devices == 0 || n <= int64(devices*(base.Days-1)) {
						t.Errorf("%d recoveries over %d survivors: the plan's cuts never fired mid-day — tighten cut-every", n, devices)
					}
				}
				got := fingerprint(t, c)
				if !bytes.Equal(got, ref) {
					t.Errorf("%s: results differ from reference run\nref:\n%s\ngot:\n%s", v.name, ref, got)
				}
			}
		})
	}
}

// TestSeriesAgreesWithAggregateUnderFaults is fleet's
// TestFleetSeriesAgreesWithTotalUnderFaults for this engine: the last day
// row and the final aggregate count the same dead phones, including those
// that die without the device failing. The seed-7 plan of
// TestSchedulingInvariance cuts mid-day and kills nobody within the
// horizon; cut-every=200 cuts every boot attempt, so every phone dies in
// first boot.
func TestSeriesAgreesWithAggregateUnderFaults(t *testing.T) {
	for _, tc := range []struct {
		faults string
		deaths bool
	}{
		{"read=2e-4,cut-every=20000", false},
		{"cut-every=200", true},
	} {
		spec := tinySpec()
		spec.Seed = 7
		spec.Faults = tc.faults
		c := runToEnd(t, "", spec)
		rows := c.Series().Rows
		agg, _ := c.Aggregate()
		got := rows[len(rows)-1][fleet.ColBricked]
		if got != agg.Total.Bricked || (tc.deaths && got == 0) {
			t.Errorf("%s: last series row has %d bricked, final aggregate %d; want equal (deaths expected: %v)",
				tc.faults, got, agg.Total.Bricked, tc.deaths)
		}
	}
}

// interrupt pauses the campaign as soon as any progress exists, then
// abandons the manager entirely — the in-process equivalent of kill -9
// between epoch commits (the on-disk story for kills mid-write is pinned
// separately by the truncation tests and the smoke script).
func interrupt(c *Campaign) {
	c.Pause()
}

// TestCrashResumeEquivalence is the kill-and-resume pin: interrupt a
// campaign, adopt its directory with a brand-new manager (as a restarted
// process would), resume, and require results byte-identical to an
// uninterrupted run — across seeds, worker counts, and shard counts.
func TestCrashResumeEquivalence(t *testing.T) {
	for _, tc := range []struct {
		seed            int64
		shards, workers int
		every           int
	}{
		{seed: 7, shards: 1, workers: 1, every: 2},
		{seed: 7, shards: 3, workers: 4, every: 2},
		{seed: 11, shards: 2, workers: 4, every: 1},
	} {
		tc := tc
		t.Run(fmt.Sprintf("seed%d-s%d-w%d-e%d", tc.seed, tc.shards, tc.workers, tc.every), func(t *testing.T) {
			spec := tinySpec()
			spec.Seed = tc.seed
			spec.Shards = tc.shards
			spec.Workers = tc.workers
			spec.CheckpointEvery = tc.every
			spec.Faults = "read=2e-4,cut-every=3000000"

			ref := fingerprint(t, runToEnd(t, t.TempDir(), spec))

			dir := t.TempDir()
			m1, err := NewManagerOpts(Options{DataDir: dir})
			if err != nil {
				t.Fatalf("NewManager: %v", err)
			}
			c1, err := m1.Submit(spec)
			if err != nil {
				t.Fatalf("Submit: %v", err)
			}
			interrupt(c1)
			// The first manager is dead. A fresh process adopts the
			// directory; the campaign comes back paused with its spec.
			m2, err := NewManagerOpts(Options{DataDir: dir})
			if err != nil {
				t.Fatalf("NewManager (restart): %v", err)
			}
			c2, ok := m2.Get(c1.ID())
			if !ok {
				t.Fatalf("restarted manager did not adopt campaign %s", c1.ID())
			}
			if got := c2.State(); got != StatePaused {
				t.Fatalf("adopted campaign state = %s, want paused", got)
			}
			if err := c2.Resume(); err != nil {
				t.Fatalf("Resume: %v", err)
			}
			if err := c2.Wait(); err != nil {
				t.Fatalf("resumed campaign failed: %v", err)
			}
			if got := fingerprint(t, c2); !bytes.Equal(got, ref) {
				t.Errorf("resumed results differ from uninterrupted run\nref:\n%s\ngot:\n%s", ref, got)
			}
		})
	}
}

// TestResumeAfterTruncatedCell simulates a kill -9 mid-checkpoint-write
// after the fact: complete a campaign, chop the tail off one cell file,
// and require a fresh manager's sweep to silently recompute it back to
// byte-identical results.
func TestResumeAfterTruncatedCell(t *testing.T) {
	spec := tinySpec()
	spec.Shards = 2
	spec.CheckpointEvery = 2
	dir := t.TempDir()
	ref := fingerprint(t, runToEnd(t, dir, spec))

	path := cellPath(filepath.Join(dir, "c000001"), 1, 2)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatalf("stat cell: %v", err)
	}
	if err := os.Truncate(path, info.Size()/2); err != nil {
		t.Fatalf("truncate cell: %v", err)
	}

	m, err := NewManagerOpts(Options{DataDir: dir})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	c, ok := m.Get("c000001")
	if !ok {
		t.Fatal("campaign not adopted")
	}
	if err := c.Resume(); err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if err := c.Wait(); err != nil {
		t.Fatalf("campaign failed after truncation: %v", err)
	}
	if got := fingerprint(t, c); !bytes.Equal(got, ref) {
		t.Errorf("recomputed results differ after truncated cell\nref:\n%s\ngot:\n%s", ref, got)
	}
}

// TestFork pins fork semantics: the fork shares the source's completed
// epochs byte-for-byte (same prefix in the day series) and computes its
// own future — here an extended horizon under a different fault plan.
func TestFork(t *testing.T) {
	spec := tinySpec()
	spec.CheckpointEvery = 2
	dir := t.TempDir()
	src := runToEnd(t, dir, spec)

	faults := "read=5e-4"
	fk, err := src.mgr.Fork(src.ID(), ForkOptions{Name: "what-if", Days: 7, Faults: &faults})
	if err != nil {
		t.Fatalf("Fork: %v", err)
	}
	if err := fk.Wait(); err != nil {
		t.Fatalf("fork failed: %v", err)
	}
	if got := fk.spec.Days; got != 7 {
		t.Fatalf("fork days = %d, want 7", got)
	}
	srcSeries, fkSeries := src.Series(), fk.Series()
	if got, want := len(fkSeries.Rows), 7; got != want {
		t.Fatalf("fork series has %d rows, want %d", got, want)
	}
	// Epochs [0,2) and [2,4) are grid-equal between a 5-day and a 7-day
	// horizon and must have been copied, so days 0..3 agree exactly.
	for k := 0; k < 4; k++ {
		for j := range srcSeries.Rows[k] {
			if srcSeries.Rows[k][j] != fkSeries.Rows[k][j] {
				t.Errorf("day %d col %d: src %d, fork %d", k, j, srcSeries.Rows[k][j], fkSeries.Rows[k][j])
			}
		}
	}
	if _, final := fk.Aggregate(); !final {
		t.Error("fork aggregate not final after Wait")
	}
}

// TestForkRequiresDataDir pins the in-memory limitation.
func TestForkRequiresDataDir(t *testing.T) {
	c := runToEnd(t, "", tinySpec())
	if _, err := c.mgr.Fork(c.ID(), ForkOptions{}); err == nil {
		t.Fatal("fork of an in-memory campaign succeeded, want error")
	}
}
