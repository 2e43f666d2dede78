package fstest

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"flashwear/internal/faultinject"
	"flashwear/internal/fs"
	"flashwear/internal/simrand"
)

// CrashFS is a file system that can simulate a power cut and be remounted.
type CrashFS interface {
	fs.FileSystem
	// SimulateCrash drops all volatile state, leaving the device exactly
	// as a power cut would.
	SimulateCrash()
}

// CrashFactory creates a fresh volume and returns it along with a remount
// function that re-opens the same underlying device after a crash.
type CrashFactory func(t *testing.T) (CrashFS, func(t *testing.T) CrashFS)

// Verifier runs an implementation-specific offline consistency check (an
// fsck) against the volume's underlying device. It must fail the test on
// structural corruption.
type Verifier func(t *testing.T)

// RunCrash executes the crash-consistency suite: random operation
// sequences, a crash at a random point, remount, then verification that
// everything synced before the crash is intact and the volume still works.
// Optional verifiers (offline fsck passes) run after every recovery.
func RunCrash(t *testing.T, mk CrashFactory, verify ...Verifier) {
	t.Run("SyncedSurviveCrashLoop", func(t *testing.T) { crashLoop(t, mk, verify) })
	t.Run("RepeatedCrashesStayMountable", func(t *testing.T) { repeatedCrashes(t, mk, verify) })
}

// FaultsFired fails the test unless the injectors, together, injected at
// least one read fault and one program fault: a crash suite run under a
// fault plan proves nothing about faults that never fired.
func FaultsFired(t *testing.T, injs []*faultinject.Injector) {
	t.Helper()
	var reads, programs int64
	for _, j := range injs {
		st := j.Stats()
		reads += st.ReadFaults
		programs += st.ProgramFaults
	}
	if reads == 0 || programs == 0 {
		t.Errorf("injected %d read and %d program faults over %d volumes, want both > 0: tighten the plan", reads, programs, len(injs))
	}
}

func runVerifiers(t *testing.T, verify []Verifier) {
	for _, v := range verify {
		v(t)
	}
}

// crashLoop runs several rounds of random writes with checkpoints of known
// state at each sync; after a crash, all synced state must be present.
func crashLoop(t *testing.T, mk CrashFactory, verify []Verifier) {
	for seed := int64(1); seed <= 6; seed++ {
		v, remount := mk(t)
		rng := simrand.New(seed)

		// synced holds, per file, the content as of its last fsync.
		synced := map[string][]byte{}
		pending := map[string][]byte{}
		handles := map[string]fs.File{}

		fileFor := func(name string) fs.File {
			if f, ok := handles[name]; ok {
				return f
			}
			f, err := v.Create("/" + name)
			if err != nil {
				t.Fatalf("seed %d: create %s: %v", seed, name, err)
			}
			handles[name] = f
			pending[name] = nil
			return f
		}

		ops := 40 + rng.Intn(120)
		for i := 0; i < ops; i++ {
			name := fmt.Sprintf("f%d", rng.Intn(4))
			f := fileFor(name)
			switch rng.Intn(5) {
			case 0: // fsync: pending content becomes durable
				if err := f.Sync(); err != nil {
					t.Fatalf("seed %d: sync: %v", seed, err)
				}
				synced[name] = append([]byte(nil), pending[name]...)
			default: // extend with a recognisable record
				rec := bytes.Repeat([]byte{byte(i + 1)}, 512+rng.Intn(2048))
				off := int64(len(pending[name]))
				if _, err := f.WriteAt(rec, off); err != nil {
					t.Fatalf("seed %d: write: %v", seed, err)
				}
				pending[name] = append(pending[name], rec...)
			}
		}

		v.SimulateCrash()
		v2 := remount(t)
		runVerifiers(t, verify)

		for name, want := range synced {
			if len(want) == 0 {
				continue
			}
			g, err := v2.Open("/" + name)
			if err != nil {
				t.Fatalf("seed %d: %s lost after crash: %v", seed, name, err)
			}
			if g.Size() < int64(len(want)) {
				t.Fatalf("seed %d: %s shrank below synced size: %d < %d",
					seed, name, g.Size(), len(want))
			}
			got := make([]byte, len(want))
			if _, err := g.ReadAt(got, 0); err != nil {
				t.Fatalf("seed %d: read %s: %v", seed, name, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("seed %d: %s synced content corrupted", seed, name)
			}
		}
		// The volume still works after recovery.
		f, err := v2.Create("/post-crash")
		if err != nil {
			t.Fatalf("seed %d: create after recovery: %v", seed, err)
		}
		if _, err := f.WriteAt([]byte("alive"), 0); err != nil {
			t.Fatalf("seed %d: write after recovery: %v", seed, err)
		}
		if err := f.Sync(); err != nil {
			t.Fatalf("seed %d: sync after recovery: %v", seed, err)
		}
	}
}

// repeatedCrashes crashes the same volume many times in a row, including
// crashes immediately after mount, and demands a clean recovery each time.
func repeatedCrashes(t *testing.T, mk CrashFactory, verify []Verifier) {
	v, remount := mk(t)
	f, err := v.Create("/anchor")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("anchored"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	cur := v
	for round := 0; round < 8; round++ {
		cur.SimulateCrash()
		cur = remount(t)
		runVerifiers(t, verify)
		g, err := cur.Open("/anchor")
		if err != nil {
			t.Fatalf("round %d: anchor lost: %v", round, err)
		}
		got := make([]byte, 8)
		if _, err := g.ReadAt(got, 0); err != nil || string(got) != "anchored" {
			t.Fatalf("round %d: anchor corrupted: %q %v", round, got, err)
		}
		// Occasionally do un-synced work before the next crash; it may
		// vanish but must never corrupt the anchor.
		if round%2 == 0 {
			if tmp, err := cur.Create("/scratch"); err == nil {
				_, _ = tmp.WriteAt(bytes.Repeat([]byte{0xAA}, 8192), 0)
			}
		}
	}
	if _, err := cur.Stat("/anchor"); errors.Is(err, fs.ErrNotExist) {
		t.Fatal("anchor gone at the end")
	}
}
