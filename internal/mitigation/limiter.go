package mitigation

import (
	"time"
)

// RateLimiter enforces a lifespan budget on app writes. In Global mode
// every app shares one bucket (simple, but §4.5 warns it "may harm benign
// applications that rely on bursts"); per-app buckets give each app an
// equal slice.
type RateLimiter struct {
	budget LifespanBudget
	// BurstBytes is the bucket depth (how large a benign burst passes
	// unthrottled). Defaults to 256 MiB.
	BurstBytes float64

	global *TokenBucket
	perApp map[string]*TokenBucket
	// PerApp switches from one shared bucket to per-app buckets.
	PerApp bool
}

// NewRateLimiter builds a limiter from a budget. Buckets materialise on
// first use, so BurstBytes may be adjusted after construction.
func NewRateLimiter(budget LifespanBudget) (*RateLimiter, error) {
	if err := budget.Validate(); err != nil {
		return nil, err
	}
	return &RateLimiter{
		budget:     budget,
		BurstBytes: 256 << 20,
		perApp:     make(map[string]*TokenBucket),
	}, nil
}

// Throttle implements the android.Config.Throttle hook.
func (l *RateLimiter) Throttle(app string, bytes int64, now time.Duration) time.Duration {
	var tb *TokenBucket
	if l.PerApp {
		tb = l.perApp[app]
		if tb == nil {
			tb = NewTokenBucket(l.budget.BytesPerSecond(), l.BurstBytes)
			l.perApp[app] = tb
		}
	} else {
		if l.global == nil {
			l.global = NewTokenBucket(l.budget.BytesPerSecond(), l.BurstBytes)
		}
		tb = l.global
	}
	return tb.Take(bytes, now)
}
