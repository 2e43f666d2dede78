package obs

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"flashwear/internal/hostio"
)

// openFaultJournal opens a journal at path over a FaultFS built from the
// given plan string.
func openFaultJournal(t *testing.T, path, plan string) *Journal {
	t.Helper()
	p, err := hostio.ParsePlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournalFS(hostio.NewFaultFS(hostio.OS{}, p), path)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// reopenClean reopens the journal file over the real filesystem and
// returns its replayed events — what the next process would adopt.
func reopenClean(t *testing.T, path string) []Event {
	t.Helper()
	j, err := OpenJournalFS(hostio.OS{}, path)
	if err != nil {
		t.Fatalf("clean reopen: %v", err)
	}
	defer j.Close()
	return j.Events(0)
}

func appendN(t *testing.T, j *Journal, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := j.Append(Event{Type: "tick", Detail: fmt.Sprintf("n%d", i)}); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}

func wantContiguous(t *testing.T, events []Event, n int) {
	t.Helper()
	if len(events) != n {
		t.Fatalf("got %d events, want %d", len(events), n)
	}
	for i, e := range events {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d, want %d", i, e.Seq, i+1)
		}
	}
}

// A Sync that fails mid-frame must not lose the event or poison the
// file: the append parks in the ring, the next append replays it, and a
// clean reopen sees every event contiguously.
func TestJournalSyncFailRecovers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	j := openFaultJournal(t, path, "class=journal,fault=eio,on=sync,at=2")
	reg := NewRegistry()
	j.PersistErrors = reg.Counter("journal_persist_errors_total", "Failed journal writes and syncs.")
	j.Recoveries = reg.Counter("journal_recoveries_total", "Journal ring replays.")
	appendN(t, j, 1)
	if j.pending() != 0 {
		t.Fatalf("healthy append parked: pending = %d", j.pending())
	}
	appendN(t, j, 1) // sync #2 fails
	if j.pending() != 1 {
		t.Fatalf("after failed sync: pending = %d, want 1", j.pending())
	}
	appendN(t, j, 1) // triggers recovery replay
	if j.pending() != 0 {
		t.Fatalf("after recovery: pending = %d, want 0", j.pending())
	}
	// Both counters render on the registry they were made on.
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"\njournal_persist_errors_total 1\n", "\njournal_recoveries_total 1\n"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("rendering lacks %q:\n%s", strings.TrimSpace(want), buf.String())
		}
	}
	j.Close()
	wantContiguous(t, reopenClean(t, path), 3)
}

// A torn write leaves partial bytes past the durable prefix; recovery
// must truncate them away before replaying, or the reopened journal
// would find a garbled line.
func TestJournalTornWriteRecovers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	j := openFaultJournal(t, path, "class=journal,fault=torn,on=write,at=2")
	appendN(t, j, 4)
	if j.pending() != 0 {
		t.Fatalf("pending = %d, want 0 after recovery", j.pending())
	}
	j.Close()
	wantContiguous(t, reopenClean(t, path), 4)
}

// A persistent failure window parks several events; the first append
// after the window replays them all under one fsync, in order.
func TestJournalRingReplayAfterWindow(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	j := openFaultJournal(t, path, "class=journal,fault=enospc,on=write,from=2,until=6")
	appendN(t, j, 6)
	if j.pending() != 0 {
		t.Fatalf("pending = %d, want 0 after the window closed", j.pending())
	}
	if j.isLost() {
		t.Fatal("journal reported lost; ring should have absorbed the window")
	}
	j.Close()
	wantContiguous(t, reopenClean(t, path), 6)
	// The in-memory log was never affected.
	wantContiguous(t, j.Events(0), 6)
}

// Ring overflow abandons persistence but must leave the on-disk file a
// clean contiguous prefix — never a sequence gap — and keep serving the
// full log from memory.
func TestJournalRingOverflowKeepsCleanPrefix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	j := openFaultJournal(t, path, "class=journal,fault=enospc,on=write,from=2")
	j.RingCap = 2
	appendN(t, j, 8)
	if !j.isLost() {
		t.Fatal("want Lost() after ring overflow")
	}
	// Memory still has everything, contiguous.
	wantContiguous(t, j.Events(0), 8)
	j.Close()
	// Disk has only the durable prefix (event 1), still contiguous and
	// adoptable.
	wantContiguous(t, reopenClean(t, path), 1)
}

// pending returns how many appended events await persistence (0 when
// healthy or memory-only).
func (j *Journal) pending() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.ring)
}

// isLost reports whether the degraded ring overflowed and persistence
// was abandoned for this process.
func (j *Journal) isLost() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.lost
}
