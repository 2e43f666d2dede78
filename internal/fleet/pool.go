package fleet

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
)

// panicHook, when non-nil, runs before every device simulation; tests use
// it to inject a panic and pin the worker containment behaviour.
var panicHook func(p Params)

// runDevice invokes one device simulation with panic containment: a
// panicking device is reported as failed (panicked=true) rather than
// crashing the worker goroutine and aborting the whole fleet run.
func runDevice(ctx context.Context, spec Spec, p Params, stacks *Stacks) (res DeviceResult, err error, panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	if panicHook != nil {
		panicHook(p)
	}
	res, err = simulateDevice(ctx, spec, p, stacks)
	return
}

// Run simulates the fleet described by spec and returns the merged
// population statistics. It blocks until every device has run, spec's
// context is cancelled, or a device fails.
//
// Scheduling is dynamic — an atomic cursor hands the next device index to
// whichever worker frees up first — but the Result is independent of both
// the schedule and Workers: device parameters derive from (Seed, index)
// alone, each device is born on its worker's stack for its model formatted
// to the state a new stack has, and accumulator merging is
// integer-additive. See the package documentation.
func Run(ctx context.Context, spec Spec) (*Result, error) {
	spec = spec.Defaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	workers := spec.Workers
	if workers > spec.Devices {
		workers = spec.Devices
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		cursor   atomic.Int64 // next device index to hand out
		done     atomic.Int64 // completed devices, for Progress
		errOnce  sync.Once
		firstErr error
		wg       sync.WaitGroup
	)
	accs := make([]*Accumulator, workers)
	faults := make([]Faults, workers)
	for w := 0; w < workers; w++ {
		acc := newAccumulator(spec)
		accs[w] = acc
		ft := &faults[w]
		wg.Add(1)
		go func() {
			defer wg.Done()
			var stacks Stacks
			for ctx.Err() == nil {
				i := int(cursor.Add(1) - 1)
				if i >= spec.Devices {
					return
				}
				p := spec.Sample(i)
				res, err, panicked := runDevice(ctx, spec, p, &stacks)
				if panicked {
					// Contained: record the failure with the seed that
					// reproduces it and move on to the next device, on a
					// new stack for its model.
					stacks.Drop(p)
					acc.noteFailed(p.Seed)
					if spec.Progress != nil {
						spec.Progress(int(done.Add(1)), spec.Devices, DeviceResult{Index: i})
					}
					continue
				}
				if err != nil {
					errOnce.Do(func() {
						firstErr = err
						cancel()
					})
					return
				}
				acc.add(res)
				ft.add(res.faults)
				if spec.Progress != nil {
					spec.Progress(int(done.Add(1)), spec.Devices, res)
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	// The caller's context may have been cancelled between devices, in
	// which case no worker recorded an error but the run is incomplete.
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	merged := accs[0]
	for _, acc := range accs[1:] {
		if err := merged.merge(acc); err != nil {
			return nil, err
		}
	}
	// Which worker drew a failing device is a race; sorting the seeds keeps
	// the Result a pure function of the Spec regardless of worker count.
	sort.Slice(merged.FailedSeeds, func(a, b int) bool {
		return merged.FailedSeeds[a] < merged.FailedSeeds[b]
	})
	res := &Result{Spec: spec, Accumulator: merged}
	for _, f := range faults {
		res.Faults.add(f)
	}
	return res, nil
}
