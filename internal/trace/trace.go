// Package trace records and replays block-level I/O. The paper runs the
// same workloads across seven devices; a recorded trace makes such
// cross-device comparisons exact: capture the attack once, replay it
// bit-for-bit against any simulated device, at the original simulated
// timing or as fast as the target allows.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"flashwear/internal/blockdev"
	"flashwear/internal/simclock"
)

// Op is the I/O operation kind.
type Op uint8

const (
	OpWrite Op = iota + 1
	OpRead
	OpDiscard
	OpFlush
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpWrite:
		return "write"
	case OpRead:
		return "read"
	case OpDiscard:
		return "discard"
	case OpFlush:
		return "flush"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Event is one traced request. Payload bytes are not retained — wear and
// timing depend only on the shape of the request stream.
type Event struct {
	At  time.Duration // simulated time the request was issued
	Op  Op
	Off int64
	Len int64
}

// Stats summarises a recorded trace: request counts and data volume by
// operation kind (flushes carry no bytes).
type Stats struct {
	Writes   int64
	Reads    int64
	Discards int64
	Flushes  int64

	BytesWritten   int64
	BytesRead      int64
	BytesDiscarded int64
}

// Recorder wraps a device and appends every request to an in-memory trace.
type Recorder struct {
	Inner blockdev.Device
	clock *simclock.Clock

	events []Event
	stats  Stats
}

// NewRecorder wraps dev; the clock timestamps events.
func NewRecorder(dev blockdev.Device, clock *simclock.Clock) *Recorder {
	return &Recorder{Inner: dev, clock: clock}
}

// Events returns the recorded trace.
func (r *Recorder) Events() []Event { return r.events }

func (r *Recorder) add(op Op, off, length int64) {
	r.events = append(r.events, Event{At: r.clock.Now(), Op: op, Off: off, Len: length})
	switch op {
	case OpWrite:
		r.stats.Writes++
		r.stats.BytesWritten += length
	case OpRead:
		r.stats.Reads++
		r.stats.BytesRead += length
	case OpDiscard:
		r.stats.Discards++
		r.stats.BytesDiscarded += length
	case OpFlush:
		r.stats.Flushes++
	}
}

// ReadAt implements blockdev.Device.
func (r *Recorder) ReadAt(p []byte, off int64) error {
	r.add(OpRead, off, int64(len(p)))
	return r.Inner.ReadAt(p, off)
}

// WriteAt implements blockdev.Device.
func (r *Recorder) WriteAt(p []byte, off int64) error {
	r.add(OpWrite, off, int64(len(p)))
	return r.Inner.WriteAt(p, off)
}

// WriteAccounted implements blockdev.Device.
func (r *Recorder) WriteAccounted(off, length int64) error {
	r.add(OpWrite, off, length)
	return r.Inner.WriteAccounted(off, length)
}

// Discard implements blockdev.Device.
func (r *Recorder) Discard(off, length int64) error {
	r.add(OpDiscard, off, length)
	return r.Inner.Discard(off, length)
}

// Flush implements blockdev.Device.
func (r *Recorder) Flush() error {
	r.add(OpFlush, 0, 0)
	return r.Inner.Flush()
}

// Size implements blockdev.Device.
func (r *Recorder) Size() int64 { return r.Inner.Size() }

// SectorSize implements blockdev.Device.
func (r *Recorder) SectorSize() int { return r.Inner.SectorSize() }

var _ blockdev.Device = (*Recorder)(nil)

// --- serialization ---

const magic = 0x46575452 // "FWTR"

// Write serialises a trace in a compact binary format.
func Write(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:], magic)
	binary.LittleEndian.PutUint64(hdr[4:], uint64(len(events)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var rec [25]byte
	for _, e := range events {
		rec[0] = byte(e.Op)
		binary.LittleEndian.PutUint64(rec[1:], uint64(e.At))
		binary.LittleEndian.PutUint64(rec[9:], uint64(e.Off))
		binary.LittleEndian.PutUint64(rec[17:], uint64(e.Len))
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ErrFormat is returned for malformed trace streams.
var ErrFormat = errors.New("trace: malformed trace")

// Read deserialises a trace written by Write.
func Read(r io.Reader) ([]Event, error) {
	br := bufio.NewReader(r)
	var hdr [12]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrFormat)
	}
	n := binary.LittleEndian.Uint64(hdr[4:])
	if n > 1<<32 {
		return nil, fmt.Errorf("%w: unreasonable event count %d", ErrFormat, n)
	}
	events := make([]Event, 0, n)
	var rec [25]byte
	for i := uint64(0); i < n; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, fmt.Errorf("%w: truncated at event %d", ErrFormat, i)
		}
		e := Event{
			Op:  Op(rec[0]),
			At:  time.Duration(binary.LittleEndian.Uint64(rec[1:])),
			Off: int64(binary.LittleEndian.Uint64(rec[9:])),
			Len: int64(binary.LittleEndian.Uint64(rec[17:])),
		}
		if e.Op < OpWrite || e.Op > OpFlush {
			return nil, fmt.Errorf("%w: bad op %d", ErrFormat, rec[0])
		}
		events = append(events, e)
	}
	return events, nil
}

// --- replay ---

// ReplayStats summarises a replay.
type ReplayStats struct {
	Events       int
	BytesWritten int64
	BytesRead    int64
	Errors       int
	Elapsed      time.Duration
}

// Replay issues a trace against a device, request after request at the
// target device's own speed. Offsets beyond the target's size wrap around,
// so traces recorded on larger devices remain usable. A failing request is
// counted in ReplayStats.Errors and the replay continues: a dying target
// device is an expected outcome in wear studies.
func Replay(dev blockdev.Device, clock *simclock.Clock, events []Event) ReplayStats {
	var st ReplayStats
	start := clock.Now()
	buf := make([]byte, 0)
	for _, e := range events {
		off, length := e.Off, e.Len
		if dev.Size() > 0 && off+length > dev.Size() {
			off = off % dev.Size()
			if off+length > dev.Size() {
				off = 0
			}
			if length > dev.Size() {
				length = dev.Size()
			}
		}
		var err error
		switch e.Op {
		case OpWrite:
			err = dev.WriteAccounted(off, length)
			st.BytesWritten += length
		case OpRead:
			if int64(cap(buf)) < length {
				buf = make([]byte, length)
			}
			err = dev.ReadAt(buf[:length], off)
			st.BytesRead += length
		case OpDiscard:
			err = dev.Discard(off, length)
		case OpFlush:
			err = dev.Flush()
		default:
			err = fmt.Errorf("%w: op %v", ErrFormat, e.Op)
		}
		st.Events++
		if err != nil {
			st.Errors++
		}
	}
	st.Elapsed = clock.Now() - start
	return st
}
