package main

import (
	iofs "io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"

	"flashwear/internal/hostio"
)

// ioTally is what meterFS counts per hostio path class. Counts and bytes
// are exact and repeat run to run; the seconds are host time.
type ioTally struct {
	WriteCalls, BytesWritten int64
	ReadCalls, BytesRead     int64
	Syncs, Renames           int64
	WriteTime, SyncTime      time.Duration
	ReadTime                 time.Duration
}

func (t *ioTally) merge(o ioTally) {
	t.WriteCalls += o.WriteCalls
	t.BytesWritten += o.BytesWritten
	t.ReadCalls += o.ReadCalls
	t.BytesRead += o.BytesRead
	t.Syncs += o.Syncs
	t.Renames += o.Renames
	t.WriteTime += o.WriteTime
	t.SyncTime += o.SyncTime
	t.ReadTime += o.ReadTime
}

// meterFS is the counting and timing hostio.FS passed to fleetd as
// Options.FS. Every byte of campaign state goes through it, classified by
// hostio.Classify; it forwards each call unchanged (a campaign run through
// it writes the same cell bytes as one through hostio.OS{}, see
// TestMeterFSTransparent). fleetd calls it from several goroutines, so the
// tallies sit behind a mutex, taken once per call.
type meterFS struct {
	inner hostio.FS
	span  *Span // parent of the per-file spans; nil when tracing is off

	mu      sync.Mutex
	byClass map[string]*ioTally
	lanes   map[string]int // directory -> Chrome lane of its file spans
}

var _ hostio.FS = (*meterFS)(nil)

func newMeterFS(inner hostio.FS, span *Span) *meterFS {
	return &meterFS{inner: inner, span: span, byClass: make(map[string]*ioTally), lanes: make(map[string]int)}
}

// update applies fn to the tally of name's class.
func (m *meterFS) update(name string, fn func(*ioTally)) {
	class := hostio.Classify(name)
	m.mu.Lock()
	t := m.byClass[class]
	if t == nil {
		t = &ioTally{}
		m.byClass[class] = t
	}
	fn(t)
	m.mu.Unlock()
}

// Class returns a copy of one class's tally.
func (m *meterFS) Class(class string) ioTally {
	if m == nil {
		return ioTally{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if t := m.byClass[class]; t != nil {
		return *t
	}
	return ioTally{}
}

// Total returns the sum over all classes.
func (m *meterFS) Total() ioTally {
	var sum ioTally
	for _, class := range []string{hostio.ClassCheckpoint, hostio.ClassJournal, hostio.ClassSpec, hostio.ClassOther} {
		sum.merge(m.Class(class))
	}
	return sum
}

// laneOf gives every directory its own Chrome row (shards write their cells
// concurrently, one directory each). Lane 0 is the benchmark's own.
func (m *meterFS) laneOf(name string) int {
	dir := filepath.Dir(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	lane, ok := m.lanes[dir]
	if !ok {
		lane = len(m.lanes) + 1
		m.lanes[dir] = lane
	}
	return lane
}

func (m *meterFS) wrap(f hostio.File, err error, name string) (hostio.File, error) {
	if err != nil {
		return nil, err
	}
	var sp *Span
	if m.span != nil {
		sp = m.span.StartLane("hostio "+hostio.Classify(name)+" file", m.laneOf(name))
	}
	return &meterHostFile{File: f, m: m, name: name, span: sp}, nil
}

func (m *meterFS) Create(name string) (hostio.File, error) {
	f, err := m.inner.Create(name)
	return m.wrap(f, err, name)
}

func (m *meterFS) Open(name string) (hostio.File, error) {
	f, err := m.inner.Open(name)
	return m.wrap(f, err, name)
}

func (m *meterFS) OpenFile(name string, flag int, perm os.FileMode) (hostio.File, error) {
	f, err := m.inner.OpenFile(name, flag, perm)
	return m.wrap(f, err, name)
}

func (m *meterFS) Rename(oldpath, newpath string) error {
	err := m.inner.Rename(oldpath, newpath)
	if err == nil {
		m.update(newpath, func(t *ioTally) { t.Renames++ })
	}
	return err
}

func (m *meterFS) Remove(name string) error                     { return m.inner.Remove(name) }
func (m *meterFS) MkdirAll(path string, perm os.FileMode) error { return m.inner.MkdirAll(path, perm) }
func (m *meterFS) ReadDir(name string) ([]iofs.DirEntry, error) { return m.inner.ReadDir(name) }
func (m *meterFS) Stat(name string) (iofs.FileInfo, error)      { return m.inner.Stat(name) }

func (m *meterFS) ReadFile(name string) ([]byte, error) {
	start := time.Now()
	data, err := m.inner.ReadFile(name)
	d := time.Since(start)
	m.update(name, func(t *ioTally) {
		t.ReadCalls++
		t.BytesRead += int64(len(data))
		t.ReadTime += d
	})
	return data, err
}

func (m *meterFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	start := time.Now()
	err := m.inner.WriteFile(name, data, perm)
	d := time.Since(start)
	if err == nil {
		m.update(name, func(t *ioTally) {
			t.WriteCalls++
			t.BytesWritten += int64(len(data))
			t.WriteTime += d
		})
	}
	return err
}

// meterHostFile is the hostio.File half of meterFS. Its own tally is kept
// without locking (a handle belongs to one goroutine) and folded into the
// class tally, and into the file's span, on Close.
type meterHostFile struct {
	hostio.File
	m    *meterFS
	name string
	span *Span
	t    ioTally
}

func (f *meterHostFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	f.t.WriteTime += time.Since(start)
	f.t.WriteCalls++
	f.t.BytesWritten += int64(n)
	return n, err
}

func (f *meterHostFile) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Read(p)
	f.t.ReadTime += time.Since(start)
	f.t.ReadCalls++
	f.t.BytesRead += int64(n)
	return n, err
}

func (f *meterHostFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.t.SyncTime += time.Since(start)
	f.t.Syncs++
	return err
}

func (f *meterHostFile) Close() error {
	err := f.File.Close()
	f.span.Charge("write(2)", f.t.WriteCalls, f.t.WriteTime)
	f.span.Charge("fsync(2)", f.t.Syncs, f.t.SyncTime)
	f.span.Charge("read(2)", f.t.ReadCalls, f.t.ReadTime)
	f.span.End()
	t := f.t
	f.t = ioTally{}
	f.m.update(f.name, func(c *ioTally) { c.merge(t) })
	return err
}
