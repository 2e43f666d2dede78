// Package wtrace is the causal wear-attribution layer: it threads an
// origin tag (app, stream, or workload identity) from the write's point of
// entry — an android app sandbox, an appmodel writer, a fleet workload
// class — through the file system and FTL down to individual NAND programs
// and erases, and aggregates the result into a per-origin wear ledger.
//
// The paper's headline is that an unprivileged app can silently consume a
// device's entire P/E budget; aggregate counters (internal/telemetry) show
// *that* wear happened but not *whose* writes caused it. wtrace answers
// the "whose" question the way Flashmon answers it for raw NAND I/O —
// event-level monitoring at the flash layer — but with full cross-layer
// causality, because the simulation owns every layer of the stack.
//
// # Attribution model
//
// Every device stack is single-threaded, so the current origin is ambient
// state on the Tracer: the layer that accepts a write (the android
// sandbox, a TagFS wrapper) sets it, and everything the write causes
// further down — FS journal commits, read-modify-writes, cache routing —
// inherits it without any per-call plumbing. Inside the FTL the tag
// becomes per-physical-page state (mirroring the reverse map, and stamped
// into NAND OOB metadata so it survives power loss): a GC relocation, a
// wear-leveling migration, or an SLC-cache drain attributes its program to
// the origin that owns the data being moved, under a cause bucket (host /
// gc / wl / cache). An erase is attributed to the origin that programmed
// the plurality of the block's pages since its last erase (ties break to
// the lowest origin id; a never-programmed block erases against origin 0).
//
// # The decomposition identity
//
// Per-origin counts are integers and every counted NAND operation is
// attributed to exactly one origin, so the ledger rows sum *exactly* to
// the device totals:
//
//	Σ host_pages            == ftl.Stats().HostPagesWritten
//	Σ programs (all causes) == main.Stats().Programs + cache.Stats().Programs
//	Σ erases                == main.Stats().Erases + cache.Stats().Erases
//
// This identity is pinned by tests at the FTL, android, and fleet layers.
//
// # Cost
//
// With no tracer attached the hot path costs one nil pointer compare per
// FTL program (pinned by BenchmarkFTLWrite, <2% like the idle fault
// plans). With a tracer attached, a note is one plain integer add on the
// origin's row; Chrome trace events are recorded only after EnableEvents
// and are capped.
package wtrace

import (
	"fmt"
	"time"
)

// Origin identifies one writer (an app, a workload class, a stream). It
// indexes the Tracer's ledger rows. Origin 0 is always "os": writes
// issued while no origin is set — mkfs, mount, FS background work not
// caused by any app write.
type Origin uint16

// OriginOS is the default ambient origin.
const OriginOS Origin = 0

// Cause buckets one physical program by why the FTL issued it — the
// write-amplification decomposition.
type Cause uint8

const (
	// CauseHost is a program carrying host data (into either pool).
	CauseHost Cause = iota
	// CauseGC is a main-pool garbage-collection relocation.
	CauseGC
	// CauseWL is a static wear-leveling migration.
	CauseWL
	// CauseCache is an SLC-cache drain migration into the main pool.
	CauseCache

	// NumCauses sizes per-cause arrays.
	NumCauses
)

// String implements fmt.Stringer.
func (c Cause) String() string {
	switch c {
	case CauseHost:
		return "host"
	case CauseGC:
		return "gc"
	case CauseWL:
		return "wl"
	case CauseCache:
		return "cache"
	default:
		return fmt.Sprintf("Cause(%d)", int(c))
	}
}

// row is one origin's live counters.
type row struct {
	hostPages  int64
	hostBytes  int64
	programs   [NumCauses]int64
	erases     int64
	erasePages int64
}

// Tracer is one device stack's tracing handle: the ambient current
// origin, the per-origin wear ledger and the event buffer. It is
// single-threaded like the device stack it instruments: plain counters,
// no locks. Concurrent stacks (fleet workers) each own a Tracer and share
// nothing; their Snapshots merge by origin name afterwards.
type Tracer struct {
	cur Origin

	// The ledger: rows[o] is origin o's account, names[o] its name.
	byName   map[string]Origin
	names    []string
	rows     []row
	pageSize int64

	// Now supplies event timestamps (the device's simulated clock). Nil
	// means all events stamp zero.
	Now func() time.Duration

	eventsOn bool
	eventCap int
	events   []Event
	dropped  int64

	tally []int32 // scratch for erase attribution
}

// New returns a tracer with an empty ledger: origin 0 ("os") registered,
// nothing counted.
func New() *Tracer {
	return &Tracer{
		byName: map[string]Origin{"os": OriginOS},
		names:  []string{"os"},
		rows:   make([]row, 1),
	}
}

// SetPageSize records the device page size, which converts page counts to
// bytes in snapshots.
func (t *Tracer) SetPageSize(n int) { t.pageSize = int64(n) }

// Origin registers (or finds) an origin by name and returns its id. Names
// must be non-empty and must not contain commas, quotes, or newlines
// (they appear verbatim in CSV output).
func (t *Tracer) Origin(name string) Origin {
	if name == "" {
		panic("wtrace: empty origin name")
	}
	for _, r := range name {
		if r == ',' || r == '"' || r == '\n' || r == '\r' {
			panic(fmt.Sprintf("wtrace: origin name %q contains CSV-hostile characters", name))
		}
	}
	if o, ok := t.byName[name]; ok {
		return o
	}
	o := Origin(len(t.names))
	t.byName[name] = o
	t.names = append(t.names, name)
	t.rows = append(t.rows, row{})
	return o
}

// Origins returns the registered origin names, indexed by Origin id.
func (t *Tracer) Origins() []string { return append([]string(nil), t.names...) }

// SetOrigin makes org the ambient origin for subsequent host writes and
// returns the previous one, so callers can nest tag scopes.
func (t *Tracer) SetOrigin(org Origin) (prev Origin) {
	prev, t.cur = t.cur, org
	return prev
}

// Current returns the ambient origin.
func (t *Tracer) Current() Origin { return t.cur }

// NoteHostPage counts one host page written by the current origin.
func (t *Tracer) NoteHostPage() {
	r := &t.rows[t.cur]
	r.hostPages++
	r.hostBytes += t.pageSize
}

// NoteProgram counts one physical NAND program for org under cause.
func (t *Tracer) NoteProgram(org Origin, cause Cause) { t.rows[org].programs[cause]++ }

// EraseBlockAttrib attributes one block erase. pageOrgs holds the origin
// of every page programmed into the block since its last erase; the erase
// is charged to the plurality owner (ties to the lowest origin id, an
// empty block to origin 0), and each origin additionally receives its
// page-weighted share in erase_pages. Exactly one erase is counted per
// call, which is what makes Σ erases match the chip totals.
func (t *Tracer) EraseBlockAttrib(block int, pageOrgs []Origin) {
	winner := OriginOS
	if len(pageOrgs) > 0 {
		n := len(t.rows)
		if cap(t.tally) < n {
			t.tally = make([]int32, n)
		}
		tally := t.tally[:n]
		clear(tally)
		for _, o := range pageOrgs {
			tally[o]++
		}
		var bestN int32
		for i, c := range tally {
			if c > bestN { // strict: ties keep the lowest id
				winner, bestN = Origin(i), c
			}
		}
		for i, c := range tally {
			if c > 0 {
				t.rows[i].erasePages += int64(c)
			}
		}
	}
	t.rows[winner].erases++
	t.emit(Event{Name: "erase", Ph: 'i', Tid: tidErase, Ts: t.now(), Origin: winner,
		Block: int32(block), Pages: int32(len(pageOrgs))})
}

// EnableEvents turns on Chrome trace-event recording with a buffer cap
// (0 means the default of one million events). Events past the cap are
// dropped and counted.
func (t *Tracer) EnableEvents(cap int) {
	if cap <= 0 {
		cap = 1 << 20
	}
	t.eventsOn = true
	t.eventCap = cap
}

// EventsEnabled reports whether event recording is on.
func (t *Tracer) EventsEnabled() bool { return t.eventsOn }

// Dropped returns how many events were dropped at the cap.
func (t *Tracer) Dropped() int64 { return t.dropped }

func (t *Tracer) now() int64 {
	if t.Now == nil {
		return 0
	}
	return t.Now().Microseconds()
}

func (t *Tracer) emit(e Event) {
	if !t.eventsOn {
		return
	}
	if len(t.events) >= t.eventCap {
		t.dropped++
		return
	}
	t.events = append(t.events, e)
}

// EventHostWrite records one host write request as a complete event on
// the current origin's track.
func (t *Tracer) EventHostWrite(off, nbytes int64, start, dur time.Duration) {
	if !t.eventsOn {
		return
	}
	t.emit(Event{Name: "write", Ph: 'X', Tid: tidHostBase + int32(t.cur),
		Ts: start.Microseconds(), Dur: dur.Microseconds(),
		Origin: t.cur, Off: off, Bytes: nbytes})
}

// EventRelocate records a GC or wear-leveling relocation of one block.
func (t *Tracer) EventRelocate(cause Cause, block, pages int) {
	if !t.eventsOn {
		return
	}
	tid, name := int32(tidGC), "gc.relocate"
	if cause == CauseWL {
		tid, name = tidWL, "wl.migrate"
	}
	t.emit(Event{Name: name, Ph: 'i', Tid: tid, Ts: t.now(),
		Block: int32(block), Pages: int32(pages)})
}
