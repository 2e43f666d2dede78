package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"flashwear/internal/hostio"
)

// Event is one entry of a campaign's journal. Two kinds share the record:
//
//   - ops events (Sim false): lifecycle and progress — submitted, paused,
//     resumed, forked, cell_reused, cell_computed, checkpoint_written,
//     epoch_committed, done, failed. Their presence, order, and count
//     depend on scheduling and process history, and that is fine: they
//     describe this process, not the simulation.
//   - sim events (Sim true): alerts and brick milestones. Their payload
//     (Type, Day, Rule, Value, Detail) is a pure function of the
//     campaign's sim-domain day series, so across shards, workers,
//     checkpoint cadence, and resume the set of sim events is identical
//     (the determinism tests compare that payload, without the ops
//     envelope).
//
// Seq and WallMs are the ops envelope on every event: Seq is assigned by
// the journal (contiguous from 1, never reused, survives crash/resume)
// and WallMs stamps append time.
type Event struct {
	Seq    uint64 `json:"seq"`
	WallMs int64  `json:"wall_ms"`
	Type   string `json:"type"`
	// Sim marks the payload as sim-domain (deterministic).
	Sim bool `json:"sim,omitempty"`
	// Day is the 1-based simulated day the event refers to (0 = none).
	Day int `json:"day,omitempty"`
	// Shard and Epoch locate cell-scoped ops events; Shard is 0-based and
	// only meaningful when Epoch (1-based) is set.
	Shard int `json:"shard,omitempty"`
	Epoch int `json:"epoch,omitempty"`
	// Rule names the alert or milestone rule that fired.
	Rule string `json:"rule,omitempty"`
	// Value is the rule's reading, rendered as an exact integer ratio
	// ("3/1000") so sim events never carry float formatting.
	Value  string `json:"value,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// SimKey identifies a sim event for cross-resume dedup: the same rule
// firing for the same day must journal exactly once per campaign, no
// matter how many sweeps re-derive it.
func (e Event) SimKey() string {
	return fmt.Sprintf("%s|%s|%d", e.Type, e.Rule, e.Day)
}

// Journal is an append-only, monotonically-sequenced event log with
// subscriber fan-out. With a path it persists as JSON lines (one fsync
// per append — events are epoch-cadence, not device-cadence) and reloads
// on open, tolerating a torn final line from a crash mid-append; without
// a path it is memory-only. All methods are safe for concurrent use.
//
// # Degraded mode
//
// A journal must never take the campaign down with it: when the host
// disk fails an append (ENOSPC, EIO on write or sync), the event is
// parked in a bounded in-memory ring and Append still succeeds — the
// in-memory log and subscriber fan-out are unaffected. Every later
// append first retries recovery: the file is truncated back to its last
// fully-synced offset (discarding any partial bytes a torn write left)
// and the whole ring replays in order under one fsync, so the on-disk
// sequence stays contiguous with no gaps. If the ring overflows
// (RingCap, default 1024) the journal gives up on persistence for the
// rest of this process — the on-disk file keeps its clean contiguous
// prefix and a restart adopts from that — rather than ever writing a
// sequence gap.
type Journal struct {
	// Logger, when set (before first use), mirrors every append as a
	// structured log line tagged Tag.
	Logger *Logger
	Tag    string
	// RingCap bounds the degraded-mode ring (set before first use;
	// 0 means 1024).
	RingCap int
	// PersistErrors and Recoveries, when set (before first use), count
	// failed writes and syncs of the file and ring replays that made it
	// whole again.
	PersistErrors, Recoveries *Counter

	mu      sync.Mutex
	fs      hostio.FS
	f       hostio.File // nil when memory-only
	path    string
	goodOff int64   // bytes of durable, fully-synced, contiguous prefix
	ring    []Event // appended but not yet persisted (degraded mode)
	lost    bool    // ring overflowed: persistence abandoned for this process
	events  []Event
	subs    []*subscriber
	nextSeq uint64
}

type subscriber struct {
	ch chan Event
}

// OpenJournalFS opens (or creates) the journal at path over fsys,
// replaying existing events; an empty path makes a memory-only journal.
// A torn final line — the signature of a crash mid-append — is truncated
// away, so the next append continues the contiguous sequence; a gap or
// duplicate in the replayed sequence numbers is corruption and fails the
// open.
func OpenJournalFS(fsys hostio.FS, path string) (*Journal, error) {
	j := &Journal{fs: fsys}
	if path == "" {
		return j, nil
	}
	if err := fsys.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	good := int64(0) // offset past the last fully-parsed line
	br := bufio.NewReader(f)
	for {
		line, err := br.ReadBytes('\n')
		if err == io.EOF {
			break // no trailing newline: torn tail, drop it
		}
		if err != nil {
			f.Close()
			return nil, err
		}
		var e Event
		if json.Unmarshal(bytes.TrimSpace(line), &e) != nil {
			break // torn or garbled tail: keep the good prefix
		}
		if e.Seq != j.nextSeq+1 {
			f.Close()
			return nil, fmt.Errorf("obs: journal %s: seq %d after %d, want contiguous", path, e.Seq, j.nextSeq)
		}
		j.events = append(j.events, e)
		j.nextSeq = e.Seq
		good += int64(len(line))
	}
	if err := f.Truncate(good); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	j.f = f
	j.path = path
	j.goodOff = good
	return j, nil
}

// Append assigns the next sequence number and wall timestamp, persists
// the event (when file-backed), fans it out to subscribers, and returns
// the completed event. A host-I/O failure does not fail the append: the
// event is parked in the degraded ring and replayed once writes succeed
// again (see the type comment); the only error Append can return is a
// marshal failure.
func (j *Journal) Append(e Event) (Event, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.nextSeq++
	e.Seq = j.nextSeq
	e.WallMs = WallNow().UnixMilli()
	if j.f != nil && !j.lost {
		raw, err := json.Marshal(e)
		if err != nil {
			return Event{}, err
		}
		j.persistLocked(e, append(raw, '\n'))
	}
	j.events = append(j.events, e)
	live := j.subs[:0]
	for _, s := range j.subs {
		select {
		case s.ch <- e:
			live = append(live, s)
		default:
			// Slow subscriber: close it out rather than block the
			// campaign; the client reconnects with ?since=.
			close(s.ch)
		}
	}
	j.subs = live
	j.Logger.Log("journal", "campaign", j.Tag, "seq", e.Seq, "type", e.Type, "detail", e.Detail)
	return e, nil
}

// persistLocked writes one marshaled event durably, degrading to the
// ring on failure. When the ring is non-empty the event joins it and a
// full recovery is attempted instead, so events only ever reach the file
// in sequence order.
func (j *Journal) persistLocked(e Event, line []byte) {
	if len(j.ring) > 0 {
		j.enqueueLocked(e)
		j.recoverLocked()
		return
	}
	if _, err := j.f.Write(line); err != nil {
		j.PersistErrors.Inc()
		j.Logger.Log("journal_degraded", "campaign", j.Tag, "seq", e.Seq, "err", err.Error())
		j.enqueueLocked(e)
		return
	}
	if err := j.f.Sync(); err != nil {
		j.PersistErrors.Inc()
		j.Logger.Log("journal_degraded", "campaign", j.Tag, "seq", e.Seq, "err", err.Error())
		j.enqueueLocked(e)
		return
	}
	j.goodOff += int64(len(line))
}

// enqueueLocked parks an event in the degraded ring. On overflow the
// journal abandons persistence for the rest of the process: a sequence
// gap on disk would read as corruption on the next open, so the durable
// file keeps its clean contiguous prefix instead.
func (j *Journal) enqueueLocked(e Event) {
	ringCap := j.RingCap
	if ringCap <= 0 {
		ringCap = 1024
	}
	if len(j.ring) >= ringCap {
		j.lost = true
		j.ring = nil
		// Best effort: leave the file a clean contiguous prefix for the
		// next process to adopt.
		if err := j.f.Truncate(j.goodOff); err == nil {
			j.f.Seek(j.goodOff, io.SeekStart)
		}
		j.Logger.Log("journal_lost", "campaign", j.Tag, "ring_cap", ringCap)
		return
	}
	j.ring = append(j.ring, e)
}

// recoverLocked tries to replay the ring: truncate away any partial
// bytes past the durable prefix, rewrite every parked event in order,
// and fsync once. Only a fully-synced replay advances goodOff and clears
// the ring, so a failure mid-replay changes nothing durable.
func (j *Journal) recoverLocked() bool {
	if err := j.f.Truncate(j.goodOff); err != nil {
		return false
	}
	if _, err := j.f.Seek(j.goodOff, io.SeekStart); err != nil {
		return false
	}
	var buf bytes.Buffer
	for _, e := range j.ring {
		raw, err := json.Marshal(e)
		if err != nil {
			return false
		}
		buf.Write(raw)
		buf.WriteByte('\n')
	}
	if _, err := j.f.Write(buf.Bytes()); err != nil {
		j.PersistErrors.Inc()
		return false
	}
	if err := j.f.Sync(); err != nil {
		j.PersistErrors.Inc()
		return false
	}
	j.goodOff += int64(buf.Len())
	j.Logger.Log("journal_recovered", "campaign", j.Tag, "replayed", len(j.ring))
	j.ring = nil
	j.Recoveries.Inc()
	return true
}

// Events returns a copy of every event with Seq > since.
func (j *Journal) Events(since uint64) []Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.sinceLocked(since)
}

func (j *Journal) sinceLocked(since uint64) []Event {
	i := 0
	for i < len(j.events) && j.events[i].Seq <= since {
		i++
	}
	return append([]Event(nil), j.events[i:]...)
}

// LastSeq returns the highest assigned sequence number (0 when empty).
func (j *Journal) LastSeq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.nextSeq
}

// Subscribe returns the replay of events after since plus a channel of
// future ones. The channel is closed if the subscriber falls more than a
// buffer behind; cancel unsubscribes (idempotent).
func (j *Journal) Subscribe(since uint64) (replay []Event, ch <-chan Event, cancel func()) {
	s := &subscriber{ch: make(chan Event, 256)}
	j.mu.Lock()
	replay = j.sinceLocked(since)
	j.subs = append(j.subs, s)
	j.mu.Unlock()
	var once sync.Once
	return replay, s.ch, func() {
		once.Do(func() {
			j.mu.Lock()
			for i, sub := range j.subs {
				if sub == s {
					j.subs = append(j.subs[:i], j.subs[i+1:]...)
					break
				}
			}
			j.mu.Unlock()
		})
	}
}

// Close releases the backing file (memory contents stay queryable).
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
