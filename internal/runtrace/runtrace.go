// Package runtrace is the ops-plane execution tracer: it measures where
// a serving process spends wall-clock time inside a campaign — simulate
// vs. checkpoint-encode vs. checkpoint-fsync vs. journal vs. aggregate
// vs. alert-eval — without ever letting those timings flow back into
// simulation results.
//
// # Shape
//
// A Tracer is threaded through fleetd's execution core. Code brackets a
// unit of work with Begin/End:
//
//	sp := tr.Begin(runtrace.PhaseSimulate, shard, epoch, device)
//	... work ...
//	sp.End()
//
// End does two things: it always feeds the elapsed seconds to the
// tracer's observer (fleetd points this at its fleetd_phase_seconds
// Prometheus histogram, so per-phase cost is available on every /metrics
// scrape, Flashmon-style: the monitor is always on), and — only while a
// recording window is open — it appends a span to a bounded in-memory
// buffer that WriteChrome renders as a Chrome trace-event file
// (chrome://tracing, Perfetto, speedscope).
//
// # The sim/ops domain boundary
//
// Spans carry wall-clock durations, so this package is ops-domain
// (declared below) exactly like internal/obs. The API is shaped so sim
// code cannot launder time through it: Begin hands back an opaque Active
// whose fields are unexported, End returns nothing, and the only way to
// read durations out — Totals — is banned by the flashvet wallclock
// analyzer outside ops-domain packages, the same treatment as
// obs.WallNow (DESIGN.md §14). The determinism pin is behavioral too:
// fleetd's fingerprint tests require byte-identical series/ledger/
// aggregate output with tracing on vs. off.
package runtrace

import (
	"context"
	"runtime/pprof"
	"sync"
	"time"
)

//flashvet:ops-domain runtrace measures where the serving process spends wall-clock time; spans, totals and traces never flow back into simulation results

// Phase identifies which part of the campaign execution pipeline a span
// covers. The values index fixed-size arrays; keep NumPhases last.
type Phase uint8

const (
	// PhaseSimulate is the deterministic per-device epoch step loop.
	PhaseSimulate Phase = iota
	// PhaseCheckpointEncode is snapshot encoding + buffered writes into
	// a checkpoint cell.
	PhaseCheckpointEncode
	// PhaseCheckpointFsync is the fsync before a cell's atomic rename.
	PhaseCheckpointFsync
	// PhaseJournal is an append (incl. fsync) to the campaign journal.
	PhaseJournal
	// PhaseAggregate is epoch commit: merging shard footers into the
	// streaming campaign aggregate.
	PhaseAggregate
	// PhaseAlertEval is the deterministic fleet-health alert scan.
	PhaseAlertEval

	// NumPhases is the number of phases (array size, not a phase).
	NumPhases
)

var phaseNames = [NumPhases]string{
	"simulate",
	"checkpoint_encode",
	"checkpoint_fsync",
	"journal",
	"aggregate",
	"alert_eval",
}

// String returns the snake_case phase name used in metric labels,
// pprof labels and Chrome trace thread names.
func (p Phase) String() string {
	if p >= NumPhases {
		return "unknown"
	}
	return phaseNames[p]
}

// Observer receives the duration of every finished span, recording or
// not. fleetd points it at a per-phase Prometheus histogram. It runs on
// the goroutine that called End and must be safe for concurrent use.
type Observer func(phase Phase, seconds float64)

// PhaseTotal is the running sum for one phase. Nanos accumulates as
// integer nanoseconds so totals are exact (no float accumulation).
type PhaseTotal struct {
	Count int64
	Nanos int64
}

// Seconds converts the accumulated nanoseconds.
func (t PhaseTotal) Seconds() float64 { return float64(t.Nanos) / 1e9 }

// Span is one recorded interval, offsets relative to the recording
// window's start. Shard is -1 for campaign-level phases (aggregate,
// alert-eval, campaign journal appends); Device is -1 where no single
// device applies.
type Span struct {
	Phase  Phase
	Shard  int32
	Epoch  int32
	Device int32
	Start  time.Duration
	Dur    time.Duration
}

// maxSpans bounds the recording buffer (~48 B/span ≈ 12 MiB).
const maxSpans = 1 << 18

// Tracer collects spans. The zero value is not usable; use New. A nil
// *Tracer is valid and inert: Begin/End on it are no-ops, so call sites
// never need to guard.
type Tracer struct {
	observe Observer // immutable after New

	mu      sync.Mutex
	rec     bool
	base    time.Time // recording window start, anchor for Span.Start
	spans   []Span
	dropped int64
	totals  [NumPhases]PhaseTotal
}

// New creates a tracer; observe may be nil.
func New(observe Observer) *Tracer {
	return &Tracer{observe: observe, base: time.Now()}
}

// Active is an open span. Its fields are unexported on purpose: the
// starting timestamp must not be readable by the (possibly sim-domain)
// code being measured.
type Active struct {
	t      *Tracer
	start  time.Time
	phase  Phase
	shard  int32
	epoch  int32
	device int32
}

// Begin opens a span. shard -1 marks campaign-level work; device -1
// means no single device applies.
func (t *Tracer) Begin(phase Phase, shard, epoch, device int) Active {
	if t == nil {
		return Active{}
	}
	return Active{
		t:     t,
		start: time.Now(),
		phase: phase,
		shard: int32(shard), epoch: int32(epoch), device: int32(device),
	}
}

// End closes the span: the duration goes to the always-on totals and
// observer, and to the span buffer if a recording window is open.
func (a Active) End() {
	t := a.t
	if t == nil {
		return
	}
	end := time.Now()
	dur := end.Sub(a.start)
	if dur < 0 {
		dur = 0
	}
	t.mu.Lock()
	t.totals[a.phase].Count++
	t.totals[a.phase].Nanos += dur.Nanoseconds()
	if t.rec {
		if len(t.spans) < maxSpans {
			start := a.start.Sub(t.base)
			if start < 0 {
				start = 0
			}
			t.spans = append(t.spans, Span{
				Phase: a.phase, Shard: a.shard, Epoch: a.epoch, Device: a.device,
				Start: start, Dur: dur,
			})
		} else {
			t.dropped++
		}
	}
	t.mu.Unlock()
	if t.observe != nil {
		t.observe(a.phase, dur.Seconds())
	}
}

// StartRecording opens a recording window, discarding any previously
// buffered spans and re-anchoring span offsets at now. Recording twice
// restarts the window.
func (t *Tracer) StartRecording() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rec = true
	t.base = time.Now()
	t.spans = t.spans[:0]
	t.dropped = 0
}

// StopRecording closes the window; buffered spans stay available to
// WriteChrome until the next StartRecording.
func (t *Tracer) StopRecording() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rec = false
}

// Recording reports whether a window is open.
func (t *Tracer) Recording() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rec
}

// SpanCount returns the number of buffered spans.
func (t *Tracer) SpanCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Dropped returns how many spans overflowed the buffer during the
// current window.
func (t *Tracer) Dropped() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Totals returns the since-process-start per-phase wall-time sums,
// indexed by Phase. These are ops-plane clock readings: the flashvet
// wallclock analyzer bans this method outside ops-domain packages so
// simulation code cannot launder wall time through the tracer.
func (t *Tracer) Totals() [NumPhases]PhaseTotal {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.totals
}

// Do runs fn with pprof labels attached to the calling goroutine, so
// CPU profiles of a campaign segment by the same dimensions as spans
// (e.g. "shard", "3", "phase", "simulate"). kv alternates key, value.
func Do(ctx context.Context, fn func(context.Context), kv ...string) {
	pprof.Do(ctx, pprof.Labels(kv...), fn)
}
