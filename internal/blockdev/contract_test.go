package blockdev_test

import (
	"bytes"
	"testing"

	"flashwear/internal/blockdev"
	"flashwear/internal/device"
	"flashwear/internal/simclock"
	"flashwear/internal/trace"
)

// TestWriteAtDoesNotRetain: every Device copies p before WriteAt returns, so
// a caller may build its next block in the same buffer. Writers that stage
// in one scratch block (the extfs journal, the f2fs checkpoint) rely on it.
func TestWriteAtDoesNotRetain(t *testing.T) {
	newMem := func(t *testing.T) blockdev.Device {
		m, err := blockdev.NewMem(1<<20, 512)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	for _, tc := range []struct {
		name string
		dev  func(t *testing.T) blockdev.Device
	}{
		{"MemDevice", newMem},
		{"device.Device", func(t *testing.T) blockdev.Device {
			d, err := device.New(device.ProfileEMMC8().Scaled(512), simclock.New())
			if err != nil {
				t.Fatal(err)
			}
			return d
		}},
		{"Counting", func(t *testing.T) blockdev.Device { return blockdev.NewCounting(newMem(t)) }},
		{"Faulty", func(t *testing.T) blockdev.Device { return blockdev.NewFaulty(newMem(t), 0) }},
		{"trace.Recorder", func(t *testing.T) blockdev.Device { return trace.NewRecorder(newMem(t), simclock.New()) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := tc.dev(t)
			// Three 4 KiB blocks from 4 KiB in: whole pages on a 4 KiB-page
			// device, read-modify-write on a larger one.
			p := make([]byte, 3*4096)
			for i := range p {
				p[i] = byte(i*7 + 1)
			}
			want := bytes.Clone(p)
			if err := d.WriteAt(p, 4096); err != nil {
				t.Fatal(err)
			}
			for i := range p {
				p[i] = 0xEE
			}
			got := make([]byte, len(want))
			if err := d.ReadAt(got, 4096); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("a write to p after WriteAt returned changed the device's content")
			}
		})
	}
}
