package telemetry_test

import (
	"fmt"
	"sync"
	"testing"

	"flashwear/internal/telemetry"
)

// TestRegistryConcurrentRegistrationAndEmission hammers one registry from
// many goroutines — each registering its own instruments and pushing
// updates — while a reader snapshots continuously. Run under -race (the
// Makefile's race target does) this pins the registry's concurrency
// contract: registration and Snapshot take the lock, updates are atomic,
// and no update is lost.
func TestRegistryConcurrentRegistrationAndEmission(t *testing.T) {
	reg := telemetry.NewRegistry()
	const workers = 8
	const incs = 5000

	var emitters, readers sync.WaitGroup
	stop := make(chan struct{})
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Counters are monotonic, so every observed value is legal as
			// long as it is non-negative and the snapshot doesn't tear.
			for _, p := range reg.Snapshot(0).Points {
				if p.Kind == telemetry.KindCounter && p.Int < 0 {
					t.Errorf("counter %s went negative: %d", p.Name, p.Int)
					return
				}
			}
		}
	}()
	for w := 0; w < workers; w++ {
		emitters.Add(1)
		go func(w int) {
			defer emitters.Done()
			c := reg.Counter(telemetry.Name("test.ops", "worker", fmt.Sprint(w)))
			g := reg.Gauge(telemetry.Name("test.level", "worker", fmt.Sprint(w)))
			for i := 0; i < incs; i++ {
				c.Inc()
				g.Set(float64(i))
			}
		}(w)
	}
	emitters.Wait()
	close(stop)
	readers.Wait()

	snap := reg.Snapshot(0)
	var total int64
	counters := 0
	for _, p := range snap.Points {
		if p.Kind == telemetry.KindCounter {
			counters++
			total += p.Int
		}
	}
	if counters != workers {
		t.Fatalf("registered %d counters, want %d", counters, workers)
	}
	if total != workers*incs {
		t.Fatalf("counters sum to %d, want %d (lost updates)", total, workers*incs)
	}
}
