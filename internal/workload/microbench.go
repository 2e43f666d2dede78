package workload

import (
	"time"

	"flashwear/internal/blockdev"
	"flashwear/internal/simclock"
)

// Figure1Sizes returns the request sizes of Figure 1's x-axis: 0.5 KiB to
// 16 MiB in powers of two.
func Figure1Sizes() []int64 {
	var sizes []int64
	for s := int64(512); s <= 16<<20; s *= 2 {
		sizes = append(sizes, s)
	}
	return sizes
}

// BenchResult is one microbenchmark measurement.
type BenchResult struct {
	ReqBytes   int64
	Sequential bool
	Bytes      int64
	Elapsed    time.Duration
}

// MiBps returns the measured bandwidth in MiB/s.
func (r BenchResult) MiBps() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Bytes) / r.Elapsed.Seconds() / (1 << 20)
}

// Microbench measures synchronous write bandwidth for one request size and
// pattern, mirroring the setup behind Figure 1. The device must advance the
// supplied clock with its service times.
func Microbench(dev blockdev.Device, clock *simclock.Clock, reqBytes int64, sequential bool, totalBytes int64, seed int64) (BenchResult, error) {
	w := NewDeviceWriter(dev, reqBytes, sequential, seed)
	start := clock.Now()
	var written int64
	for written < totalBytes {
		n, err := w.Step(min(totalBytes-written, 4<<20))
		if err != nil {
			return BenchResult{}, err
		}
		written += n
	}
	return BenchResult{
		ReqBytes:   reqBytes,
		Sequential: sequential,
		Bytes:      written,
		Elapsed:    clock.Now() - start,
	}, nil
}
