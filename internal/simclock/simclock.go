// Package simclock provides a discrete-event simulated clock.
//
// Every component in the flashwear stack that needs a notion of time — device
// service times, charging schedules, monitor sampling — takes a *Clock rather
// than reading the wall clock. Experiments therefore run as fast as the CPU
// allows while still reporting results in simulated hours, and are fully
// deterministic.
package simclock

import (
	"container/heap"
	"fmt"
	"math"
	"time"
)

// Clock is a discrete-event simulated clock. The zero value is ready to use
// and starts at simulated time zero.
//
// Clock is not safe for concurrent use; the simulation stack is synchronous
// by design (see DESIGN.md).
type Clock struct {
	now time.Duration
	// due is no later than the next event and never earlier than now; with
	// no event queued it is as late as due-now can be without overflowing.
	// Advance steps to any time before it without looking at the queue. A
	// zero Clock's due is 0, so its first Advance looks once.
	due    time.Duration
	events eventQueue
	seq    uint64
}

// New returns a clock starting at simulated time zero.
func New() *Clock { return &Clock{} }

// Now returns the current simulated time as an offset from the simulation
// start.
func (c *Clock) Now() time.Duration { return c.now }

// Advance moves simulated time forward by d, firing any events scheduled in
// the interval in timestamp order. Advance panics if d is negative: simulated
// time, like the real thing, only moves forward.
//
// A step that ends before the next event is one compare and one add, which
// the compiler inlines into every caller; a negative d is huge as unsigned,
// so it fails the compare and reaches advance's panic.
func (c *Clock) Advance(d time.Duration) {
	if uint64(d) < uint64(c.due-c.now) {
		c.now += d
		return
	}
	c.advance(d)
}

// advance is Advance when an event may be due by now+d.
func (c *Clock) advance(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("simclock: Advance(%v): negative duration", d))
	}
	target := c.now + d
	c.runUntil(target)
	c.now = target
	c.refresh()
}

// AdvanceTo moves simulated time forward to the absolute simulated time t.
// It is a no-op if t is not after the current time.
func (c *Clock) AdvanceTo(t time.Duration) {
	if t <= c.now {
		return
	}
	c.Advance(t - c.now)
}

// At schedules fn to run when simulated time reaches t. If t is in the past,
// fn runs at the next Advance. Events scheduled for the same instant run in
// scheduling order.
func (c *Clock) At(t time.Duration, fn func()) {
	if fn == nil {
		panic("simclock: At: nil callback")
	}
	c.seq++
	heap.Push(&c.events, &event{when: t, seq: c.seq, fn: fn})
	c.refresh()
}

// After schedules fn to run d from the current simulated time.
func (c *Clock) After(d time.Duration, fn func()) { c.At(c.now+d, fn) }

// Every schedules fn to run every interval, starting one interval from now,
// until the returned cancel function is called. A non-positive interval
// panics.
func (c *Clock) Every(interval time.Duration, fn func()) (cancel func()) {
	if interval <= 0 {
		panic(fmt.Sprintf("simclock: Every(%v): non-positive interval", interval))
	}
	stopped := false
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		fn()
		if !stopped {
			c.After(interval, tick)
		}
	}
	c.After(interval, tick)
	return func() { stopped = true }
}

// Reset sets the clock to t and drops every scheduled event: the clock is
// then indistinguishable from New() advanced to t, and keeps its queue's
// storage.
func (c *Clock) Reset(t time.Duration) {
	clear(c.events)
	c.events = c.events[:0]
	c.now = t
	c.seq = 0
	c.refresh()
}

// refresh sets due from now and the queue: the next event's time, or now if
// that is past, so a past event fires at the next Advance.
func (c *Clock) refresh() {
	c.due = math.MaxInt64
	if c.now < 0 {
		c.due += c.now // due-now stays at most math.MaxInt64
	}
	if len(c.events) > 0 && c.events[0].when < c.due {
		c.due = max(c.events[0].when, c.now)
	}
}

// runUntil fires, in order, all events with timestamps <= target. Events may
// schedule further events; those also run if they fall within the window.
func (c *Clock) runUntil(target time.Duration) {
	for c.events.Len() > 0 {
		next := c.events[0]
		if next.when > target {
			return
		}
		heap.Pop(&c.events)
		if next.when > c.now {
			c.now = next.when
		}
		c.refresh()
		next.fn()
	}
}

type event struct {
	when time.Duration
	seq  uint64
	fn   func()
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].when != q[j].when {
		return q[i].when < q[j].when
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}
