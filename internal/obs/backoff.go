package obs

import (
	"math/rand"
	"time"
)

// Backoff is a capped exponential backoff with jitter — the one retry
// policy shared by everything in the ops plane that talks to an
// unreliable host: the fleetd checkpoint writer retrying a full disk,
// the client CLI retrying a 503. It lives in obs because retry pacing is
// wall-clock policy through and through: nothing about when a write was
// retried may flow into simulation results, and the sim-domain packages
// that use it (fleetd) only ever observe "the operation eventually
// succeeded or didn't".
//
// The zero value is usable: one attempt, no sleeping — retry disabled.
type Backoff struct {
	// Attempts is the total number of tries, including the first
	// (<= 1 means no retries).
	Attempts int
	// Sleep replaces time.Sleep, for tests and for callers that need to
	// observe cancellation mid-wait. Nil means time.Sleep.
	Sleep func(time.Duration)
}

// The delay before the first retry doubles per retry up to the cap.
const (
	backoffBase = 50 * time.Millisecond
	backoffMax  = 2 * time.Second
)

// Delay returns the pre-jitter delay after failed attempt n (1-based):
// backoffBase<<(n-1), capped at backoffMax.
func (b Backoff) Delay(n int) time.Duration {
	d := backoffBase
	for i := 1; i < n; i++ {
		d *= 2
		if d >= backoffMax {
			return backoffMax
		}
	}
	return d
}

// jitter spreads a delay uniformly over [d/2, d], so a fleet of clients
// that failed together does not retry together. The draw comes from the
// process-global math/rand stream: retry pacing is ops-domain by
// definition — shared entropy is exactly right, and nothing downstream
// is allowed to depend on it.
func jitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	half := int64(d) / 2
	return time.Duration(half + rand.Int63n(half+1))
}

// Retry runs fn up to b.Attempts times. fn reports (retryable, err):
// a nil err ends the loop successfully; a non-retryable err (a permanent
// failure like a 4xx response) ends it immediately; otherwise Retry
// sleeps the jittered backoff and tries again. Returns the last error.
func (b Backoff) Retry(fn func(attempt int) (retryable bool, err error)) error {
	attempts := b.Attempts
	if attempts < 1 {
		attempts = 1
	}
	sleep := b.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	var err error
	for n := 1; ; n++ {
		var retryable bool
		retryable, err = fn(n)
		if err == nil || !retryable || n >= attempts {
			return err
		}
		sleep(jitter(b.Delay(n)))
	}
}
