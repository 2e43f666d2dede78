package trace

import (
	"bytes"
	"errors"
	"testing"

	"flashwear/internal/blockdev"
	"flashwear/internal/device"
	"flashwear/internal/simclock"
	"flashwear/internal/workload"
)

func recordAttack(t *testing.T) []Event {
	t.Helper()
	clock := simclock.New()
	dev, err := device.New(device.ProfileEMMC8().Scaled(512), clock)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(dev, clock)
	w := workload.NewDeviceWriter(rec, 4096, false, 3)
	w.RegionLen = rec.Size() / 8
	if _, err := w.Step(2 << 20); err != nil {
		t.Fatal(err)
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	return rec.Events()
}

func TestRecorderCapturesEverything(t *testing.T) {
	events := recordAttack(t)
	if len(events) != 512+1 { // 512 x 4 KiB writes + 1 flush
		t.Fatalf("events = %d, want 513", len(events))
	}
	for i, e := range events[:512] {
		if e.Op != OpWrite || e.Len != 4096 {
			t.Fatalf("event %d = %+v", i, e)
		}
		if i > 0 && e.At < events[i-1].At {
			t.Fatalf("timestamps not monotone at %d", i)
		}
	}
	if events[512].Op != OpFlush {
		t.Fatal("flush missing")
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	events := recordAttack(t)
	var buf bytes.Buffer
	if err := Write(&buf, events); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("len = %d, want %d", len(got), len(events))
	}
	for i := range got {
		if got[i] != events[i] {
			t.Fatalf("event %d: %+v != %+v", i, got[i], events[i])
		}
	}
}

// recordAllOps drives every op kind through a Recorder over a plain memory
// device and returns it.
func recordAllOps(t *testing.T) *Recorder {
	t.Helper()
	mem, err := blockdev.NewMem(1<<20, 512)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(mem, simclock.New())
	buf := make([]byte, 4096)
	if err := rec.WriteAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteAccounted(8192, 4096); err != nil {
		t.Fatal(err)
	}
	if err := rec.ReadAt(buf[:2048], 0); err != nil {
		t.Fatal(err)
	}
	if err := rec.Discard(0, 4096); err != nil {
		t.Fatal(err)
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestSerializationRoundTripAllOps(t *testing.T) {
	events := recordAllOps(t).Events()
	kinds := map[Op]bool{}
	for _, e := range events {
		kinds[e.Op] = true
	}
	for _, op := range []Op{OpWrite, OpRead, OpDiscard, OpFlush} {
		if !kinds[op] {
			t.Fatalf("trace is missing op %v", op)
		}
	}
	var buf bytes.Buffer
	if err := Write(&buf, events); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("len = %d, want %d", len(got), len(events))
	}
	for i := range got {
		if got[i] != events[i] {
			t.Fatalf("event %d: %+v != %+v", i, got[i], events[i])
		}
	}
}

func TestRecorderStats(t *testing.T) {
	st := recordAllOps(t).stats
	want := Stats{
		Writes: 2, Reads: 1, Discards: 1, Flushes: 1,
		BytesWritten: 8192, BytesRead: 2048, BytesDiscarded: 4096,
	}
	if st != want {
		t.Fatalf("Stats = %+v, want %+v", st, want)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("not a trace"))); !errors.Is(err, ErrFormat) {
		t.Fatalf("err = %v", err)
	}
	var buf bytes.Buffer
	_ = Write(&buf, []Event{{Op: OpWrite, Len: 4096}})
	b := buf.Bytes()
	b[12] = 99 // corrupt the op
	if _, err := Read(bytes.NewReader(b)); !errors.Is(err, ErrFormat) {
		t.Fatalf("corrupt op err = %v", err)
	}
	if _, err := Read(bytes.NewReader(b[:20])); !errors.Is(err, ErrFormat) {
		t.Fatalf("truncated err = %v", err)
	}
}

func TestReplayAcrossDevices(t *testing.T) {
	events := recordAttack(t)
	// Replay the eMMC-recorded trace on the slower Moto E.
	clock := simclock.New()
	target, err := device.New(device.ProfileMotoE8().Scaled(512), clock)
	if err != nil {
		t.Fatal(err)
	}
	st := Replay(target, clock, events)
	if st.Events != len(events) || st.Errors != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BytesWritten != 2<<20 {
		t.Fatalf("BytesWritten = %d", st.BytesWritten)
	}
	if target.BytesWritten() != 2<<20 {
		t.Fatal("target device did not receive the trace")
	}
	if st.Elapsed <= 0 {
		t.Fatal("no simulated time elapsed")
	}
}

func TestReplayWrapsOversizedOffsets(t *testing.T) {
	events := []Event{{Op: OpWrite, Off: 1 << 40, Len: 4096}}
	clock := simclock.New()
	dev, err := device.New(device.ProfileEMMC8().Scaled(512), clock)
	if err != nil {
		t.Fatal(err)
	}
	if st := Replay(dev, clock, events); st.Errors != 0 {
		t.Fatalf("oversized offset not wrapped: %d errors", st.Errors)
	}
}

func TestReplayContinuesPastErrors(t *testing.T) {
	mem, _ := blockdev.NewMem(1<<20, 512)
	faulty := blockdev.NewFaulty(mem, 2)
	clock := simclock.New()
	events := []Event{
		{Op: OpWrite, Off: 0, Len: 4096},
		{Op: OpWrite, Off: 4096, Len: 4096},
		{Op: OpWrite, Off: 8192, Len: 4096},
	}
	if st := Replay(faulty, clock, events); st.Errors != 1 || st.Events != 3 {
		t.Fatalf("stats = %+v, want 1 error of 3 events", st)
	}
}

func TestOpString(t *testing.T) {
	for op, want := range map[Op]string{OpWrite: "write", OpRead: "read", OpDiscard: "discard", OpFlush: "flush", Op(9): "Op(9)"} {
		if op.String() != want {
			t.Errorf("%d.String() = %q", op, op.String())
		}
	}
}
