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

// PrefixWriter is a Device that can be told how much of a write can be
// non-zero. WritePrefix(p, n, off) is WriteAt(p, off) with the caller's
// promise that p[n:] is all zero, 0 <= n <= len(p): a writer that knows
// how much of a block it filled (a metadata block's used length) spares
// the device from finding the zero tail itself. The stored content is the
// same either way.
type PrefixWriter interface {
	WritePrefix(p []byte, n int, off int64) error
}

// WritePrefix writes p at off with the promise that p[n:] is zero: through
// d's own WritePrefix when it has one, else as d.WriteAt(p, off).
func WritePrefix(d Device, p []byte, n int, off int64) error {
	if pw, ok := d.(PrefixWriter); ok {
		return pw.WritePrefix(p, n, off)
	}
	return d.WriteAt(p, off)
}

// CheckPrefix validates a WritePrefix length against its payload's size.
func CheckPrefix(n, size int) error {
	if n < 0 || n > size {
		return fmt.Errorf("blockdev: WritePrefix: %d used bytes of %d", n, size)
	}
	return nil
}

// CheckRange validates an access against a device's size and sector size.
func CheckRange(d Device, off, length int64) error {
	return CheckExtent(off, length, int64(d.SectorSize()), d.Size())
}

// CheckExtent is CheckRange for a device of size bytes in sectors of
// sectorSize: a device that knows both calls it directly, with no
// interface calls. An access in range on a power-of-two sector (every
// simulated device) passes on a mask; anything else, every refusal
// included, goes through checkExtent, the plain definition.
func CheckExtent(off, length, sectorSize, size int64) error {
	if sectorSize&(sectorSize-1) == 0 && (off|length)&(sectorSize-1) == 0 &&
		off >= 0 && length >= 0 && length <= size-off {
		return nil
	}
	return checkExtent(off, length, sectorSize, size)
}

func checkExtent(off, length, sectorSize, size int64) error {
	if off%sectorSize != 0 || length%sectorSize != 0 {
		return fmt.Errorf("%w: off=%d len=%d sector=%d", ErrAlignment, off, length, sectorSize)
	}
	// length > size-off, not off+length > size: the sum can overflow.
	if off < 0 || length < 0 || length > size-off {
		return fmt.Errorf("%w: off=%d len=%d size=%d", ErrBounds, off, length, size)
	}
	return nil
}
