package obs

import (
	"errors"
	"testing"
	"time"
)

func TestBackoffDelayDoublesAndCaps(t *testing.T) {
	want := []time.Duration{
		50 * time.Millisecond, // after attempt 1
		100 * time.Millisecond,
		200 * time.Millisecond,
		400 * time.Millisecond,
		800 * time.Millisecond,
		1600 * time.Millisecond,
		2 * time.Second, // capped
		2 * time.Second,
	}
	for i, w := range want {
		if got := (Backoff{}).Delay(i + 1); got != w {
			t.Errorf("Delay(%d) = %v, want %v", i+1, got, w)
		}
	}
}

func TestBackoffRetrySucceedsAfterFailures(t *testing.T) {
	var sleeps []time.Duration
	b := Backoff{
		Attempts: 5,
		Sleep:    func(d time.Duration) { sleeps = append(sleeps, d) },
	}
	calls := 0
	err := b.Retry(func(attempt int) (bool, error) {
		calls++
		if attempt != calls {
			t.Fatalf("attempt = %d on call %d", attempt, calls)
		}
		if attempt < 3 {
			return true, errors.New("transient")
		}
		return false, nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("err = %v, calls = %d", err, calls)
	}
	if len(sleeps) != 2 {
		t.Fatalf("slept %d times, want 2", len(sleeps))
	}
	for i, s := range sleeps {
		d := b.Delay(i + 1)
		if s < d/2 || s > d {
			t.Errorf("sleep %d = %v, want jittered into [%v, %v]", i, s, d/2, d)
		}
	}
}

func TestBackoffRetryExhaustsAttempts(t *testing.T) {
	sentinel := errors.New("still broken")
	calls := 0
	b := Backoff{Attempts: 3, Sleep: func(time.Duration) {}}
	if err := b.Retry(func(int) (bool, error) { calls++; return true, sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
}

func TestBackoffRetryStopsOnPermanentError(t *testing.T) {
	sentinel := errors.New("bad request")
	calls := 0
	b := Backoff{Attempts: 5, Sleep: func(time.Duration) { t.Fatal("slept on a permanent error") }}
	if err := b.Retry(func(int) (bool, error) { calls++; return false, sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1", calls)
	}
}
