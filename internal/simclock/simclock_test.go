package simclock

import (
	"testing"
	"time"
)

func TestZeroValueStartsAtZero(t *testing.T) {
	var c Clock
	if got := c.Now(); got != 0 {
		t.Fatalf("Now() = %v, want 0", got)
	}
}

func TestAdvanceMovesTime(t *testing.T) {
	c := New()
	c.Advance(90 * time.Minute)
	if got := c.Now(); got != 90*time.Minute {
		t.Fatalf("Now() = %v, want 90m", got)
	}
	c.Advance(30 * time.Minute)
	if got := c.Now(); got != 2*time.Hour {
		t.Fatalf("Now() = %v, want 2h", got)
	}
}

func TestAdvanceNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Advance(-1) did not panic")
		}
	}()
	New().Advance(-time.Second)
}

func TestAdvanceTo(t *testing.T) {
	c := New()
	c.AdvanceTo(time.Hour)
	if got := c.Now(); got != time.Hour {
		t.Fatalf("Now() = %v, want 1h", got)
	}
	c.AdvanceTo(30 * time.Minute) // in the past: no-op
	if got := c.Now(); got != time.Hour {
		t.Fatalf("Now() after past AdvanceTo = %v, want 1h", got)
	}
}

func TestAtFiresInOrder(t *testing.T) {
	c := New()
	var fired []int
	c.At(3*time.Second, func() { fired = append(fired, 3) })
	c.At(1*time.Second, func() { fired = append(fired, 1) })
	c.At(2*time.Second, func() { fired = append(fired, 2) })
	c.Advance(5 * time.Second)
	if len(fired) != 3 || fired[0] != 1 || fired[1] != 2 || fired[2] != 3 {
		t.Fatalf("fired = %v, want [1 2 3]", fired)
	}
}

func TestSameInstantFiresInSchedulingOrder(t *testing.T) {
	c := New()
	var fired []int
	for i := 0; i < 5; i++ {
		i := i
		c.At(time.Second, func() { fired = append(fired, i) })
	}
	c.Advance(time.Second)
	for i, v := range fired {
		if v != i {
			t.Fatalf("fired = %v, want scheduling order", fired)
		}
	}
}

func TestEventSeesOwnTimestamp(t *testing.T) {
	c := New()
	var at time.Duration
	c.At(42*time.Second, func() { at = c.Now() })
	c.Advance(time.Minute)
	if at != 42*time.Second {
		t.Fatalf("event observed Now() = %v, want 42s", at)
	}
	if c.Now() != time.Minute {
		t.Fatalf("final Now() = %v, want 1m", c.Now())
	}
}

func TestEventsNotYetDueStayPending(t *testing.T) {
	c := New()
	ran := false
	c.At(time.Hour, func() { ran = true })
	c.Advance(time.Minute)
	if ran {
		t.Fatal("event fired an hour early")
	}
	if n := c.events.Len(); n != 1 {
		t.Fatalf("%d events pending, want 1", n)
	}
	c.Advance(time.Hour)
	if !ran {
		t.Fatal("event never fired")
	}
}

func TestAfterIsRelative(t *testing.T) {
	c := New()
	c.Advance(10 * time.Second)
	var at time.Duration
	c.After(5*time.Second, func() { at = c.Now() })
	c.Advance(10 * time.Second)
	if at != 15*time.Second {
		t.Fatalf("After fired at %v, want 15s", at)
	}
}

func TestEventsCanScheduleEvents(t *testing.T) {
	c := New()
	var fired []time.Duration
	c.At(time.Second, func() {
		fired = append(fired, c.Now())
		c.After(time.Second, func() { fired = append(fired, c.Now()) })
	})
	c.Advance(5 * time.Second)
	if len(fired) != 2 || fired[0] != time.Second || fired[1] != 2*time.Second {
		t.Fatalf("fired = %v, want [1s 2s]", fired)
	}
}

func TestEvery(t *testing.T) {
	c := New()
	n := 0
	cancel := c.Every(time.Second, func() { n++ })
	c.Advance(4500 * time.Millisecond)
	if n != 4 {
		t.Fatalf("ticks = %d, want 4", n)
	}
	cancel()
	c.Advance(10 * time.Second)
	if n != 4 {
		t.Fatalf("ticks after cancel = %d, want 4", n)
	}
}

func TestEveryNonPositivePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Every(0) did not panic")
		}
	}()
	New().Every(0, func() {})
}

func TestAtNilFuncPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("At(nil) did not panic")
		}
	}()
	New().At(time.Second, nil)
}

func TestCancelDuringTickStopsFutureTicks(t *testing.T) {
	c := New()
	n := 0
	var cancel func()
	cancel = c.Every(time.Second, func() {
		n++
		if n == 2 {
			cancel()
		}
	})
	c.Advance(10 * time.Second)
	if n != 2 {
		t.Fatalf("ticks = %d, want 2 (self-cancel)", n)
	}
}
