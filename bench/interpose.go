package main

import (
	"time"

	"flashwear/internal/blockdev"
	"flashwear/internal/fs"
)

// callTally is the count and total host time of one kind of call through an
// interposer. The simulation stacks are single-goroutine per device, so the
// tallies need no locking.
type callTally struct {
	Calls int64
	Busy  time.Duration
}

func (t *callTally) add(start time.Time) {
	t.Calls++
	t.Busy += time.Since(start)
}

// meterDev is the blockdev.Device interposer: it sits between a writer (a
// hand-mounted file system or a raw DeviceWriter) and device.New's stack and
// times every call, so its tallies are the device layer's inclusive cost
// (controller + ftl + nand). It forwards every call unchanged; the wrapped
// stack's fingerprint equals the bare one's (TestInterposersKeepFingerprint).
type meterDev struct {
	Inner blockdev.Device

	Writes, Reads, Flushes, Discards callTally
	BytesWritten                     int64
}

var _ blockdev.Device = (*meterDev)(nil)

func (m *meterDev) ReadAt(p []byte, off int64) error {
	defer m.Reads.add(time.Now())
	return m.Inner.ReadAt(p, off)
}

func (m *meterDev) WriteAt(p []byte, off int64) error {
	defer m.Writes.add(time.Now())
	m.BytesWritten += int64(len(p))
	return m.Inner.WriteAt(p, off)
}

func (m *meterDev) WriteAccounted(off, length int64) error {
	defer m.Writes.add(time.Now())
	m.BytesWritten += length
	return m.Inner.WriteAccounted(off, length)
}

func (m *meterDev) Discard(off, length int64) error {
	defer m.Discards.add(time.Now())
	return m.Inner.Discard(off, length)
}

func (m *meterDev) Flush() error {
	defer m.Flushes.add(time.Now())
	return m.Inner.Flush()
}

func (m *meterDev) Size() int64     { return m.Inner.Size() }
func (m *meterDev) SectorSize() int { return m.Inner.SectorSize() }

// total is every call through the interposer.
func (m *meterDev) total() callTally {
	if m == nil {
		return callTally{}
	}
	return callTally{
		Calls: m.Writes.Calls + m.Reads.Calls + m.Flushes.Calls + m.Discards.Calls,
		Busy:  m.Writes.Busy + m.Reads.Busy + m.Flushes.Busy + m.Discards.Busy,
	}
}

// total and since bracket a span: the calls and time the interposer saw in
// between become that span's aggregate child. Both accept a nil meter.
func (m *meterDev) since(before callTally) (int64, time.Duration) {
	now := m.total()
	return now.Calls - before.Calls, now.Busy - before.Busy
}

// meterSimFS is the fs.FileSystem interposer, wrapped around a mounted file
// system or an app's sandboxed Storage(): it times the two calls the paper's
// workload makes, WriteAt and Sync on open files, inclusive of everything
// below, and forwards the rest untouched.
type meterSimFS struct {
	fs.FileSystem

	Writes, Syncs callTally
	BytesWritten  int64
}

func (m *meterSimFS) Create(path string) (fs.File, error) {
	f, err := m.FileSystem.Create(path)
	if err != nil {
		return nil, err
	}
	return &meterSimFile{File: f, m: m}, nil
}

func (m *meterSimFS) Open(path string) (fs.File, error) {
	f, err := m.FileSystem.Open(path)
	if err != nil {
		return nil, err
	}
	return &meterSimFile{File: f, m: m}, nil
}

type meterSimFile struct {
	fs.File
	m *meterSimFS
}

func (f *meterSimFile) WriteAt(p []byte, off int64) (int, error) {
	defer f.m.Writes.add(time.Now())
	n, err := f.File.WriteAt(p, off)
	f.m.BytesWritten += int64(n)
	return n, err
}

func (f *meterSimFile) Sync() error {
	defer f.m.Syncs.add(time.Now())
	return f.File.Sync()
}
