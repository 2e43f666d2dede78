package f2fs

import (
	"bytes"
	"slices"
	"testing"

	"flashwear/internal/blockdev"
	"flashwear/internal/fs"
)

// recordingDevice notes the offset of every WriteAt, in order.
type recordingDevice struct {
	*blockdev.MemDevice
	offs []int64
}

func (r *recordingDevice) WriteAt(p []byte, off int64) error {
	r.offs = append(r.offs, off)
	return r.MemDevice.WriteAt(p, off)
}

func deviceBytes(t *testing.T, dev blockdev.Device) []byte {
	t.Helper()
	b := make([]byte, dev.Size())
	if err := dev.ReadAt(b, 0); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCheckpointWriteOrderDeterministic: a checkpoint that finds several
// dirty nodes and several dirty NAT blocks must write them in one order
// (ascending node ID, ascending NAT block), so one input leaves one
// on-flash layout. Twelve files whose node IDs straddle the first NAT
// block boundary are left dirty, then the volume is checkpointed.
func TestCheckpointWriteOrderDeterministic(t *testing.T) {
	run := func() ([]int64, []byte) {
		mem, err := blockdev.NewMem(64<<20, 512)
		if err != nil {
			t.Fatal(err)
		}
		dev := &recordingDevice{MemDevice: mem}
		if err := Mkfs(dev); err != nil {
			t.Fatal(err)
		}
		v, err := Mount(dev, fs.Options{})
		if err != nil {
			t.Fatal(err)
		}
		v.nodeRotor = natEntriesPerBlock - 6
		payload := bytes.Repeat([]byte{0xA5}, BlockSize)
		for i := 0; i < 12; i++ {
			f, err := v.Create("/f" + string(rune('a'+i)))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt(payload, 0); err != nil {
				t.Fatal(err)
			}
		}
		dirtyNodes, dirtyNAT := 0, 0
		for _, n := range v.nodes {
			if n.dirty {
				dirtyNodes++
			}
		}
		for _, d := range v.natDirty {
			if d {
				dirtyNAT++
			}
		}
		if dirtyNodes < 2 || dirtyNAT < 2 {
			t.Fatalf("checkpoint would see %d dirty nodes and %d dirty NAT blocks, want >= 2 of each", dirtyNodes, dirtyNAT)
		}
		dev.offs = nil
		if err := v.Sync(); err != nil {
			t.Fatal(err)
		}
		return dev.offs, deviceBytes(t, mem)
	}
	wantOffs, wantBytes := run()
	for i := 1; i < 20; i++ {
		offs, b := run()
		if !slices.Equal(offs, wantOffs) {
			t.Fatalf("run %d: checkpoint WriteAt offsets\n %v\nfirst run\n %v", i, offs, wantOffs)
		}
		if !bytes.Equal(b, wantBytes) {
			t.Fatalf("run %d: device bytes differ from the first run", i)
		}
	}
}
