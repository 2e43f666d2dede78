package simclock

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// refClock is the plain definition of Clock: every Advance looks at the
// queue, which is a slice kept sorted by (when, seq).
type refClock struct {
	now    time.Duration
	events []*event
	seq    uint64
}

func (c *refClock) Now() time.Duration { return c.now }

func (c *refClock) Advance(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("simclock: Advance(%v): negative duration", d))
	}
	target := c.now + d
	for len(c.events) > 0 && c.events[0].when <= target {
		next := c.events[0]
		c.events = c.events[1:]
		c.now = max(c.now, next.when)
		next.fn()
	}
	c.now = target
}

func (c *refClock) AdvanceTo(t time.Duration) {
	if t > c.now {
		c.Advance(t - c.now)
	}
}

func (c *refClock) At(t time.Duration, fn func()) {
	c.seq++
	e := &event{when: t, seq: c.seq, fn: fn}
	i, _ := slices.BinarySearchFunc(c.events, e, func(a, b *event) int {
		return cmp.Or(cmp.Compare(a.when, b.when), cmp.Compare(a.seq, b.seq))
	})
	c.events = slices.Insert(c.events, i, e)
}

func (c *refClock) After(d time.Duration, fn func()) { c.At(c.now+d, fn) }

func (c *refClock) Every(interval time.Duration, fn func()) func() {
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

func (c *refClock) Reset(t time.Duration) { c.now, c.events, c.seq = t, nil, 0 }

// clockAPI is what the schedules below call, on a Clock and on a refClock.
type clockAPI interface {
	Now() time.Duration
	Advance(time.Duration)
	AdvanceTo(time.Duration)
	At(time.Duration, func())
	After(time.Duration, func())
	Every(time.Duration, func()) func()
	Reset(time.Duration)
}

// schedule drives one clock through ops random steps drawn from seed, and
// returns what it saw: every firing with its event and Now(), and Now()
// after every step. Callbacks schedule events of their own, some in the
// past, and some advance the clock themselves. Its draws depend only on
// seed, never on the clock, so two clocks that behave alike see the same
// steps.
func schedule(c clockAPI, seed int64, ops int) []string {
	rng := rand.New(rand.NewSource(seed))
	var log []string
	var cancels []func()
	var id uint64
	depth := 0
	var fire func(id uint64) func()
	fire = func(id uint64) func() {
		return func() {
			log = append(log, fmt.Sprintf("fire %d at %v", id, c.Now()))
			// What a callback does is a function of its id alone.
			switch h := id * 2654435761 % 97; {
			case h < 20:
				child := id*100 + 1
				c.At(c.Now()+time.Duration(h%13-3), fire(child))
			case h < 28 && depth < 3:
				depth++
				c.Advance(time.Duration(h % 5))
				depth--
			}
		}
	}
	for range ops {
		id++
		switch op := rng.Intn(100); {
		case op < 25:
			c.At(c.Now()+time.Duration(rng.Intn(60)-10), fire(id))
		case op < 35:
			c.After(time.Duration(rng.Intn(40)-5), fire(id))
		case op < 40:
			cancels = append(cancels, c.Every(time.Duration(1+rng.Intn(15)), fire(id)))
		case op < 45 && len(cancels) > 0:
			i := rng.Intn(len(cancels))
			cancels[i]()
			cancels = slices.Delete(cancels, i, i+1)
		case op < 48:
			c.Reset(time.Duration(rng.Intn(2000) - 100))
			cancels = cancels[:0]
		case op < 85:
			d := time.Duration(rng.Intn(50))
			if rng.Intn(8) == 0 {
				d = 0
			}
			c.Advance(d)
		default:
			c.AdvanceTo(c.Now() + time.Duration(rng.Intn(70)-15))
		}
		log = append(log, fmt.Sprintf("op %d: now %v", id, c.Now()))
	}
	return log
}

// TestClockMatchesPlainDefinition runs random schedules on a Clock, whose
// Advance skips the queue before due, and on refClock, which never does:
// every firing, its time, and Now() after every step must agree. Half the
// schedules start from a zero Clock rather than New().
func TestClockMatchesPlainDefinition(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		var c *Clock
		if seed%2 == 0 {
			c = &Clock{}
		} else {
			c = New()
		}
		got := schedule(c, seed, 400)
		want := schedule(&refClock{}, seed, 400)
		if i := firstDiff(got, want); i >= 0 {
			t.Fatalf("seed %d: step %d: Clock %q, plain definition %q", seed, i, at(got, i), at(want, i))
		}
		if c.due < c.now {
			t.Fatalf("seed %d: due %v before now %v", seed, c.due, c.now)
		}
	}
}

func firstDiff(a, b []string) int {
	for i := range max(len(a), len(b)) {
		if at(a, i) != at(b, i) {
			return i
		}
	}
	return -1
}

func at(log []string, i int) string {
	if i < len(log) {
		return log[i]
	}
	return "<end>"
}

// TestZeroClockFiresPastEvent: a zero Clock's due is 0, so an event At a
// past time still fires at the next Advance, even Advance(0).
func TestZeroClockFiresPastEvent(t *testing.T) {
	var c Clock
	c.Advance(5 * time.Second)
	fired := time.Duration(-1)
	c.At(time.Second, func() { fired = c.Now() })
	c.Advance(0)
	if fired != 5*time.Second || c.Now() != 5*time.Second {
		t.Fatalf("past event fired at %v, Now %v; want both 5s", fired, c.Now())
	}
	var z Clock
	z.At(0, func() { fired = -2 })
	z.Advance(0)
	if fired != -2 {
		t.Fatal("zero Clock: event at 0 did not fire at Advance(0)")
	}
}

// TestNegativeAdvancePanicsOnFastPath: with no event queued the fast path
// would take any step, so a negative one must still fail its compare, at
// negative times too.
func TestNegativeAdvancePanicsOnFastPath(t *testing.T) {
	for _, start := range []time.Duration{0, time.Hour, -time.Hour, math.MaxInt64 - 1} {
		for _, d := range []time.Duration{-1, -time.Second, math.MinInt64} {
			c := New()
			c.Reset(start)
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("Reset(%v); Advance(%v) did not panic", start, d)
					}
				}()
				c.Advance(d)
			}()
			if c.Now() != start {
				t.Errorf("Reset(%v); Advance(%v) moved Now to %v", start, d, c.Now())
			}
		}
	}
}

// TestResetEqualsNewAdvanced: Reset(t) leaves a used clock in the state
// New() advanced to t is in, and both then run a schedule alike.
func TestResetEqualsNewAdvanced(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		used := New()
		schedule(used, seed, 200)
		tt := time.Duration(seed * 37)
		used.Reset(tt)
		fresh := New()
		fresh.Advance(tt)
		if used.now != fresh.now || used.due != fresh.due || used.seq != fresh.seq || len(used.events) != len(fresh.events) {
			t.Fatalf("seed %d: Reset(%v) = now %v due %v seq %d events %d; New().Advance = now %v due %v seq %d events %d",
				seed, tt, used.now, used.due, used.seq, len(used.events), fresh.now, fresh.due, fresh.seq, len(fresh.events))
		}
		if i := firstDiff(schedule(used, seed+1000, 200), schedule(fresh, seed+1000, 200)); i >= 0 {
			t.Fatalf("seed %d: reset clock and fresh clock differ at step %d", seed, i)
		}
	}
}
