package fleetd

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"flashwear/internal/hostio"
	"flashwear/internal/obs"
)

// The torture suite is the robustness pin: campaigns run over a
// fault-injecting filesystem (ENOSPC, EIO on write/sync, torn writes,
// rename failures — against checkpoint cells and the event journal),
// get interrupted and re-adopted by a fresh manager mid-run, and must
// still produce results byte-identical to a clean run on a healthy disk.
// The determinism fingerprint (series + ledger + aggregate) is the
// oracle throughout; no test asserts on scheduling-dependent detail.

// noPause makes retry backoff free in tests.
func noPause(time.Duration) {}

// tortureManager builds a manager over dir with the given fault plan and
// a fast retry policy. It also returns the fault-injecting filesystem, nil
// for an empty plan, so a test can check that its plan fired.
func tortureManager(t *testing.T, dir, plan string) (*Manager, *hostio.FaultFS) {
	t.Helper()
	fsys := hostio.FS(hostio.OS{})
	var ffs *hostio.FaultFS
	if plan != "" {
		p, err := hostio.ParsePlan(plan)
		if err != nil {
			t.Fatalf("ParsePlan(%q): %v", plan, err)
		}
		ffs = hostio.NewFaultFS(hostio.OS{}, p)
		fsys = ffs
	}
	m, err := NewManagerOpts(Options{
		DataDir:         dir,
		FS:              fsys,
		CheckpointRetry: obs.Backoff{Attempts: 3, Sleep: noPause},
	})
	if err != nil {
		t.Fatalf("NewManagerOpts: %v", err)
	}
	return m, ffs
}

// tortureSpec is the shared campaign: 2 shards x 3 epochs = 6 cells, so
// fault schedules have plenty of distinct write/sync/rename ops to hit.
// Short mode (make torture runs the matrix under -race) trims the
// population to 2 shards x 2 epochs to keep the matrix fast; every fault
// schedule still lands inside the smaller op budget.
func tortureSpec() CampaignSpec {
	spec := tinySpec()
	spec.Days = 6
	spec.Shards = 2
	spec.CheckpointEvery = 2
	if testing.Short() {
		spec.Devices = 2
		spec.Days = 4
	}
	return spec
}

// lastEpoch is the final checkpoint epoch number for spec.
func lastEpoch(spec CampaignSpec) int {
	return (spec.Days + spec.CheckpointEvery - 1) / spec.CheckpointEvery
}

// assertNoStrayTmp fails if any checkpoint temporary survives under dir.
func assertNoStrayTmp(t *testing.T, dir string) {
	t.Helper()
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(d.Name(), ".tmp") {
			t.Errorf("stray checkpoint temporary: %s", path)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walking %s: %v", dir, err)
	}
}

// eventTypes collects the set of event types a campaign journaled.
func eventTypes(c *Campaign) map[string]int {
	types := make(map[string]int)
	for _, e := range c.Events(0) {
		types[e.Type]++
	}
	return types
}

// TestTortureFaultMatrix is the headline pin: every fault schedule ×
// kill-9-style interrupt × adopt × resume must converge to results
// byte-identical to a clean run, with no acknowledged campaign lost and
// no stray .tmp files left behind. Every row must also inject at least
// one fault, or it proves nothing.
func TestTortureFaultMatrix(t *testing.T) {
	spec := tortureSpec()
	ref := fingerprint(t, runToEnd(t, t.TempDir(), spec))

	for _, tc := range []struct {
		name string
		plan string
	}{
		{"enospc-checkpoint-create", "class=checkpoint,fault=enospc,on=create,at=1;4"},
		{"eio-checkpoint-write", "class=checkpoint,fault=eio,on=write,at=1;3"},
		{"eio-checkpoint-sync", "class=checkpoint,fault=eio,on=sync,from=1,until=3"},
		{"torn-checkpoint-write", "class=checkpoint,fault=torn,on=write,at=1;2"},
		{"rename-checkpoint", "class=checkpoint,fault=eio,on=rename,at=1;3"},
		{"enospc-journal-write", "class=journal,fault=enospc,on=write,from=2,until=7"},
		{"torn-journal-write", "class=journal,fault=torn,on=write,at=2;5"},
		{"eio-journal-sync", "class=journal,fault=eio,on=sync,at=1;4"},
		{"mixed", "seed=7,class=checkpoint,fault=enospc,on=write,p=0.3|class=journal,fault=torn,on=write,p=0.3"},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			m1, ffs1 := tortureManager(t, dir, tc.plan)
			c1, err := m1.Submit(spec)
			if err != nil {
				t.Fatalf("Submit under faults: %v", err)
			}
			interrupt(c1)
			// The first process is gone (its in-memory state, including any
			// degraded-mode carry and parked journal events, with it). A
			// fresh process adopts the directory — under the same bad disk.
			m2, ffs2 := tortureManager(t, dir, tc.plan)
			c2, ok := m2.Get(c1.ID())
			if !ok {
				t.Fatalf("acknowledged campaign %s lost across restart", c1.ID())
			}
			if err := c2.Resume(); err != nil {
				t.Fatalf("Resume: %v", err)
			}
			if err := c2.Wait(); err != nil {
				t.Fatalf("campaign failed under %q: %v", tc.plan, err)
			}
			if got := fingerprint(t, c2); !bytes.Equal(got, ref) {
				t.Errorf("results under faults differ from clean run\nref:\n%s\ngot:\n%s", ref, got)
			}
			assertNoStrayTmp(t, dir)
			s1, s2 := ffs1.Stats(), ffs2.Stats()
			if injected := s1.NoSpace + s1.IO + s1.Torn + s2.NoSpace + s2.IO + s2.Torn; injected == 0 {
				t.Errorf("plan %q injected no fault (%+v, %+v)", tc.plan, s1, s2)
			}
		})
	}
}

// TestTorturePersistentENOSPC pins degraded mode end to end: when every
// checkpoint write fails for the whole run, the campaign must keep
// simulating on in-memory state carry, journal exactly one
// checkpoint_paused alert, finish with byte-identical results, and
// report CheckpointPaused in its status.
func TestTorturePersistentENOSPC(t *testing.T) {
	spec := tortureSpec()
	ref := fingerprint(t, runToEnd(t, t.TempDir(), spec))

	dir := t.TempDir()
	m, _ := tortureManager(t, dir, "class=checkpoint,fault=enospc,on=create,from=1,until=0")
	c, err := m.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := c.Wait(); err != nil {
		t.Fatalf("campaign failed under persistent ENOSPC: %v", err)
	}
	if got := fingerprint(t, c); !bytes.Equal(got, ref) {
		t.Errorf("degraded-mode results differ from clean run\nref:\n%s\ngot:\n%s", ref, got)
	}
	types := eventTypes(c)
	if types["checkpoint_paused"] != 1 {
		t.Errorf("checkpoint_paused events = %d, want exactly 1", types["checkpoint_paused"])
	}
	if types["checkpoint_resumed"] != 0 {
		t.Errorf("checkpoint_resumed under persistent ENOSPC, want none")
	}
	if !c.Status().CheckpointPaused {
		t.Error("Status.CheckpointPaused = false after degraded run")
	}
	if got := m.metrics.CheckpointRetries.Value(); got == 0 {
		t.Error("CheckpointRetries metric = 0, want > 0")
	}
	assertNoStrayTmp(t, dir)

	// The degraded run left durable state behind only up to the outage; a
	// restart on a healed disk must recompute the gap and converge.
	m2, _ := tortureManager(t, dir, "")
	c2, ok := m2.Get(c.ID())
	if !ok {
		t.Fatal("campaign not adopted after degraded run")
	}
	if err := c2.Resume(); err != nil {
		t.Fatalf("Resume on healed disk: %v", err)
	}
	if err := c2.Wait(); err != nil {
		t.Fatalf("healed-disk resume failed: %v", err)
	}
	if got := fingerprint(t, c2); !bytes.Equal(got, ref) {
		t.Errorf("healed-disk results differ from clean run")
	}
}

// TestTortureENOSPCWindowAutoResumes pins self-healing: a bounded outage
// degrades checkpointing, and the first epoch whose writes all succeed
// journals checkpoint_resumed and clears the degraded status — no
// operator action, no campaign restart.
func TestTortureENOSPCWindowAutoResumes(t *testing.T) {
	spec := tortureSpec()
	ref := fingerprint(t, runToEnd(t, t.TempDir(), spec))

	dir := t.TempDir()
	// Ops 1..4 on checkpoint create fail: epoch 1's cells burn through the
	// retry budget and degrade; from epoch 2 on the disk is healthy again.
	m, _ := tortureManager(t, dir, "class=checkpoint,fault=enospc,on=create,from=1,until=5")
	c, err := m.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := c.Wait(); err != nil {
		t.Fatalf("campaign failed: %v", err)
	}
	if got := fingerprint(t, c); !bytes.Equal(got, ref) {
		t.Errorf("results differ from clean run after transient outage")
	}
	types := eventTypes(c)
	if types["checkpoint_paused"] == 0 {
		t.Error("no checkpoint_paused event during the outage")
	}
	if types["checkpoint_resumed"] == 0 {
		t.Error("no checkpoint_resumed event after the outage healed")
	}
	if c.Status().CheckpointPaused {
		t.Error("Status.CheckpointPaused still set after auto-resume")
	}
	// Later epochs persisted; the final epoch's cells must be on disk.
	for s := 0; s < spec.Shards; s++ {
		path := cellPath(filepath.Join(dir, c.ID()), s, lastEpoch(spec))
		if _, err := os.Stat(path); err != nil {
			t.Errorf("final-epoch cell missing after auto-resume: %v", err)
		}
	}
	assertNoStrayTmp(t, dir)
}

// TestTortureOrphanTmpSwept pins the startup sweep: a .tmp left by a
// kill -9 mid-checkpoint-write is removed during adoption and the
// campaign journals the cleanup.
func TestTortureOrphanTmpSwept(t *testing.T) {
	spec := tortureSpec()
	dir := t.TempDir()
	c := runToEnd(t, dir, spec)

	stray := cellPath(filepath.Join(dir, c.ID()), 1, 2) + ".tmp"
	if err := os.WriteFile(stray, []byte("partial checkpoint bytes"), 0o644); err != nil {
		t.Fatalf("planting stray tmp: %v", err)
	}
	m2, err := NewManagerOpts(Options{DataDir: dir})
	if err != nil {
		t.Fatalf("NewManager over dirty dir: %v", err)
	}
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Errorf("stray .tmp survived adoption: %v", err)
	}
	c2, ok := m2.Get(c.ID())
	if !ok {
		t.Fatal("campaign not adopted")
	}
	if eventTypes(c2)["tmp_swept"] == 0 {
		t.Error("no tmp_swept event journaled for the cleanup")
	}
}

// TestTortureAdoptionSkipsHalfSubmittedDir pins submit's crash story: a
// campaign directory without campaign.json (a submit killed before its
// ack) must not break adoption, and its ID must stay retired.
func TestTortureAdoptionSkipsHalfSubmittedDir(t *testing.T) {
	dir := t.TempDir()
	c := runToEnd(t, dir, tortureSpec())
	// A submit for c000002 died after creating its journal but before
	// persisting campaign.json.
	half := filepath.Join(dir, "c000002")
	if err := os.MkdirAll(half, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(half, "events.jsonl"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := NewManagerOpts(Options{DataDir: dir})
	if err != nil {
		t.Fatalf("adoption failed over half-submitted dir: %v", err)
	}
	if _, ok := m.Get("c000002"); ok {
		t.Error("half-submitted campaign adopted, want skipped")
	}
	if _, ok := m.Get(c.ID()); !ok {
		t.Error("healthy campaign not adopted")
	}
	c2, err := m.Submit(tortureSpec())
	if err != nil {
		t.Fatalf("Submit after skip: %v", err)
	}
	// Stop the sweep before TempDir's cleanup removes the directory it
	// is still writing.
	c2.Pause()
	if c2.ID() == "c000002" {
		t.Error("retired ID c000002 reused by a fresh submit")
	}
}

// TestTortureJournalContiguousAcrossFaults pins the journal's degraded
// ring from the campaign's side: with journal writes failing in a
// window, the campaign completes, the in-memory log stays gapless, and
// the file a restarted process reads back is a contiguous prefix.
func TestTortureJournalContiguousAcrossFaults(t *testing.T) {
	spec := tortureSpec()
	dir := t.TempDir()
	m, _ := tortureManager(t, dir, "class=journal,fault=enospc,on=write,from=3,until=9")
	c, err := m.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := c.Wait(); err != nil {
		t.Fatalf("campaign failed under journal faults: %v", err)
	}
	evs := c.Events(0)
	for i, e := range evs {
		if e.Seq != uint64(i+1) {
			t.Fatalf("in-memory journal gap: event %d has seq %d", i, e.Seq)
		}
	}
	// A fresh process reads the durable file; whatever prefix it holds
	// must be contiguous from 1 (OpenJournalFS fails the open otherwise).
	j, err := obs.OpenJournalFS(hostio.OS{}, filepath.Join(dir, c.ID(), "events.jsonl"))
	if err != nil {
		t.Fatalf("reopening journal: %v", err)
	}
	defer j.Close()
	if j.LastSeq() == 0 {
		t.Error("durable journal empty after recovery window")
	}
}

// TestTortureFork pins fork under checkpoint faults: restamping retries
// are not wired (fork is an explicit operator action), but a fork on a
// healthy disk of a campaign that ran degraded must still work off
// whatever cells are durable.
func TestTortureFork(t *testing.T) {
	spec := tortureSpec()
	dir := t.TempDir()
	// Epoch 1 degrades; epochs 2-3 persist.
	m, _ := tortureManager(t, dir, "class=checkpoint,fault=enospc,on=create,from=1,until=5")
	c, err := m.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := c.Wait(); err != nil {
		t.Fatalf("campaign failed: %v", err)
	}
	fk, err := m.Fork(c.ID(), ForkOptions{Name: "post-outage"})
	if err != nil {
		t.Fatalf("Fork: %v", err)
	}
	if err := fk.Wait(); err != nil {
		t.Fatalf("fork failed: %v", err)
	}
	if got, want := fingerprint(t, fk), fingerprint(t, c); !bytes.Equal(got, want) {
		t.Errorf("fork of degraded-run campaign differs from source\nsrc:\n%s\nfork:\n%s", want, got)
	}
}

// TestTortureDrain pins graceful shutdown: Drain stops the sweep at a
// cell boundary as paused, everything durable stays consistent, and a
// resume completes with byte-identical results.
func TestTortureDrain(t *testing.T) {
	spec := tortureSpec()
	ref := fingerprint(t, runToEnd(t, t.TempDir(), spec))

	dir := t.TempDir()
	m, err := NewManagerOpts(Options{DataDir: dir})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	c, err := m.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	c.Drain()
	c.Wait()
	if st := c.State(); st != StatePaused && st != StateDone {
		t.Fatalf("state after drain = %s, want paused or done", st)
	}
	assertNoStrayTmp(t, dir)
	if c.State() == StatePaused {
		if err := c.Resume(); err != nil {
			t.Fatalf("Resume after drain: %v", err)
		}
		if err := c.Wait(); err != nil {
			t.Fatalf("campaign failed after drain+resume: %v", err)
		}
	}
	if got := fingerprint(t, c); !bytes.Equal(got, ref) {
		t.Errorf("results after drain+resume differ from clean run")
	}
}

// TestTortureRepeatedInterruptsUnderFaults is the grind: interrupt and
// re-adopt the campaign several times under a probabilistic mixed fault
// plan; the final results must still match the clean run exactly.
func TestTortureRepeatedInterruptsUnderFaults(t *testing.T) {
	spec := tortureSpec()
	ref := fingerprint(t, runToEnd(t, t.TempDir(), spec))

	const plan = "seed=1337,class=checkpoint,fault=eio,on=sync,p=0.4|class=journal,fault=enospc,on=write,p=0.25"
	dir := t.TempDir()
	m, _ := tortureManager(t, dir, plan)
	c, err := m.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	id := c.ID()
	interrupt(c)
	for round := 0; round < 3; round++ {
		m, _ = tortureManager(t, dir, plan)
		c, ok := m.Get(id)
		if !ok {
			t.Fatalf("round %d: campaign lost", round)
		}
		if err := c.Resume(); err != nil {
			t.Fatalf("round %d: Resume: %v", round, err)
		}
		if round < 2 {
			interrupt(c)
			continue
		}
		if err := c.Wait(); err != nil {
			t.Fatalf("round %d: campaign failed: %v", round, err)
		}
		if got := fingerprint(t, c); !bytes.Equal(got, ref) {
			t.Errorf("results after %d interrupts under faults differ from clean run", round)
		}
	}
	assertNoStrayTmp(t, dir)
}
