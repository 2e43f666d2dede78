package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Recorder keeps the spans of a traced run in memory until the run ends.
// Spans are recorded from the benchmark's own files, around its calls into
// each layer; the program under test carries none of this. A nil *Recorder
// and a nil *Span accept every call and record nothing, so workload code
// starts and ends spans unconditionally and an untraced run pays one nil
// check per call site.
type Recorder struct {
	now func() time.Duration // time since the recorder was created

	mu    sync.Mutex
	spans []*Span
}

// NewRecorder returns an empty recorder whose clock starts now.
func NewRecorder() *Recorder {
	t0 := time.Now()
	return &Recorder{now: func() time.Duration { return time.Since(t0) }}
}

// Span is one timed interval: name, start, end, and the span that caused
// it. Count is 1 for a span timed around one call and the call count for an
// aggregate child added by Charge.
type Span struct {
	Name     string
	From, To time.Duration
	Parent   *Span
	Count    int64
	// Lane separates concurrent work in the Chrome view (one row per
	// lane); children inherit their parent's.
	Lane int

	rec     *Recorder
	charged time.Duration // total of the aggregate children laid so far
}

func (r *Recorder) add(s *Span) *Span {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	return s
}

// Root starts a span with no parent.
func (r *Recorder) Root(name string) *Span {
	if r == nil {
		return nil
	}
	t := r.now()
	return r.add(&Span{Name: name, From: t, To: t, Count: 1, rec: r})
}

// Start starts a child span of s.
func (s *Span) Start(name string) *Span {
	return s.StartLane(name, -1)
}

// StartLane starts a child span on its own lane (lane < 0 inherits), for
// work that runs concurrently with its siblings.
func (s *Span) StartLane(name string, lane int) *Span {
	if s == nil {
		return nil
	}
	if lane < 0 {
		lane = s.Lane
	}
	t := s.rec.now()
	return s.rec.add(&Span{Name: name, From: t, To: t, Parent: s, Count: 1, Lane: lane, rec: s.rec})
}

// End closes the span. A span never ended has zero length.
func (s *Span) End() {
	if s != nil {
		s.To = s.rec.now()
	}
}

// Charge adds an aggregate child to s: count calls that together took d,
// timed one by one by an interposer. Hot paths make millions of calls per
// pass, so they are kept as one span per (parent, layer) instead of one per
// call. Aggregate children are laid end to end from the parent's start, so
// several of them never overlap and self time subtracts each in full.
func (s *Span) Charge(name string, count int64, d time.Duration) {
	if s == nil || count == 0 {
		return
	}
	s.rec.mu.Lock()
	start := s.From + s.charged
	s.charged += d
	s.rec.mu.Unlock()
	s.rec.add(&Span{Name: name, From: start, To: start + d, Parent: s, Count: count, Lane: s.Lane, rec: s.rec})
}

// Dur returns the span's length.
func (s *Span) Dur() time.Duration { return s.To - s.From }

// Spans returns the recorded spans in start order.
func (r *Recorder) Spans() []*Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := append([]*Span(nil), r.spans...)
	r.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].From < out[j].From })
	return out
}

// SelfTimes returns each span's self time: its duration minus the part of
// that interval its direct children cover. Children that overlap one another
// (concurrent work) are merged first, so a parent is never charged twice,
// and children are clipped to the parent's interval.
func (r *Recorder) SelfTimes() map[*Span]time.Duration {
	spans := r.Spans()
	children := make(map[*Span][]*Span)
	for _, s := range spans {
		if s.Parent != nil {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[*Span]time.Duration, len(spans))
	for _, s := range spans {
		var covered time.Duration
		edge := s.From // everything before edge is already counted
		for _, c := range children[s] {
			lo, hi := c.From, c.To
			if lo < edge {
				lo = edge
			}
			if hi > s.To {
				hi = s.To
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s] = s.Dur() - covered
	}
	return self
}

// chromeEvent is one record of the Chrome trace-event format ("X" =
// complete event; ts and dur in microseconds).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChrome renders the spans as a Chrome trace (chrome://tracing,
// Perfetto), one row per lane, each event carrying its self time.
func (r *Recorder) WriteChrome(w io.Writer) error {
	self := r.SelfTimes()
	events := make([]chromeEvent, 0, len(self))
	for _, s := range r.Spans() {
		args := map[string]any{"self_us": float64(self[s]) / 1e3}
		if s.Count != 1 {
			args["calls"] = s.Count
		}
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "X",
			Ts: float64(s.From) / 1e3, Dur: float64(s.Dur()) / 1e3,
			Pid: 1, Tid: s.Lane, Args: args,
		})
	}
	return json.NewEncoder(w).Encode(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{events})
}
