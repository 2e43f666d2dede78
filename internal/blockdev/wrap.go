package blockdev

import "errors"

// Counting wraps a Device and counts traffic through it: the I/O volume
// *reaching the storage device*. Only tests use it.
type Counting struct {
	Inner Device

	ReadOps, WriteOps, DiscardOps, FlushOps int64
	BytesRead, BytesWritten                 int64
}

// NewCounting wraps d.
func NewCounting(d Device) *Counting { return &Counting{Inner: d} }

// ReadAt implements Device.
func (c *Counting) ReadAt(p []byte, off int64) error {
	c.ReadOps++
	c.BytesRead += int64(len(p))
	return c.Inner.ReadAt(p, off)
}

// WriteAt implements Device.
func (c *Counting) WriteAt(p []byte, off int64) error {
	c.WriteOps++
	c.BytesWritten += int64(len(p))
	return c.Inner.WriteAt(p, off)
}

// WriteAccounted implements Device.
func (c *Counting) WriteAccounted(off, length int64) error {
	c.WriteOps++
	c.BytesWritten += length
	return c.Inner.WriteAccounted(off, length)
}

// Discard implements Device.
func (c *Counting) Discard(off, length int64) error {
	c.DiscardOps++
	return c.Inner.Discard(off, length)
}

// Flush implements Device.
func (c *Counting) Flush() error {
	c.FlushOps++
	return c.Inner.Flush()
}

// Size implements Device.
func (c *Counting) Size() int64 { return c.Inner.Size() }

// SectorSize implements Device.
func (c *Counting) SectorSize() int { return c.Inner.SectorSize() }

// ErrInjected is the error produced by a Faulty device when a fault fires.
var ErrInjected = errors.New("blockdev: injected fault")

// Faulty wraps a Device and fails operations on demand, for failure-path
// tests. Ops are counted across reads and writes; when the counter reaches
// FailAfter (>0), every subsequent read/write fails until the device is
// re-armed.
type Faulty struct {
	Inner     Device
	FailAfter int64 // fail once this many read/write ops have succeeded
	ops       int64
}

// NewFaulty wraps d, failing all reads and writes after n successful ones.
func NewFaulty(d Device, n int64) *Faulty { return &Faulty{Inner: d, FailAfter: n} }

func (f *Faulty) tick() error {
	if f.FailAfter > 0 && f.ops >= f.FailAfter {
		return ErrInjected
	}
	f.ops++
	return nil
}

// ReadAt implements Device.
func (f *Faulty) ReadAt(p []byte, off int64) error {
	if err := f.tick(); err != nil {
		return err
	}
	return f.Inner.ReadAt(p, off)
}

// WriteAt implements Device.
func (f *Faulty) WriteAt(p []byte, off int64) error {
	if err := f.tick(); err != nil {
		return err
	}
	return f.Inner.WriteAt(p, off)
}

// WriteAccounted implements Device.
func (f *Faulty) WriteAccounted(off, length int64) error {
	if err := f.tick(); err != nil {
		return err
	}
	return f.Inner.WriteAccounted(off, length)
}

// Discard implements Device.
func (f *Faulty) Discard(off, length int64) error { return f.Inner.Discard(off, length) }

// Flush implements Device.
func (f *Faulty) Flush() error { return f.Inner.Flush() }

// Size implements Device.
func (f *Faulty) Size() int64 { return f.Inner.Size() }

// SectorSize implements Device.
func (f *Faulty) SectorSize() int { return f.Inner.SectorSize() }
