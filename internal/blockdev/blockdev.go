// Package blockdev defines the block-device abstraction the file systems
// and workloads are written against, plus in-memory and instrumented
// implementations for testing.
//
// Offsets and lengths are byte-addressed; implementations declare a sector
// size and may reject unaligned access. WriteAccounted supports the wear
// experiments: it behaves like WriteAt for accounting purposes (wear, cost,
// timing) without retaining a payload, so device-scale experiments don't
// hold gigabytes of simulated data in memory.
package blockdev

import (
	"errors"
	"fmt"
)

// Errors common to implementations.
var (
	ErrAlignment = errors.New("blockdev: unaligned access")
	ErrBounds    = errors.New("blockdev: access beyond device size")
)

// Device is a byte-addressed block device.
type Device interface {
	// ReadAt fills p from the device at off. Unwritten areas read as
	// zeroes.
	ReadAt(p []byte, off int64) error
	// WriteAt stores p at off. It must not retain or modify p: callers
	// reuse one scratch buffer across writes.
	WriteAt(p []byte, off int64) error
	// WriteAccounted performs an accounting-only write of length bytes at
	// off: same wear and timing as WriteAt, no payload retained. Reading
	// the range later returns zeroes.
	WriteAccounted(off, length int64) error
	// Discard drops the given range (TRIM).
	Discard(off, length int64) error
	// Flush is a write barrier.
	Flush() error
	// Size returns the device capacity in bytes.
	Size() int64
	// SectorSize returns the minimum access granularity in bytes.
	SectorSize() int
}

// CheckRange validates an access against a device's size and sector size.
func CheckRange(d Device, off, length int64) error {
	ss := int64(d.SectorSize())
	if off%ss != 0 || length%ss != 0 {
		return fmt.Errorf("%w: off=%d len=%d sector=%d", ErrAlignment, off, length, ss)
	}
	// length > Size-off, not off+length > Size: the sum can overflow.
	if off < 0 || length < 0 || length > d.Size()-off {
		return fmt.Errorf("%w: off=%d len=%d size=%d", ErrBounds, off, length, d.Size())
	}
	return nil
}
