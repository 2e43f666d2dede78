package f2fs

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"testing"

	"flashwear/internal/blockdev"
	"flashwear/internal/device"
	"flashwear/internal/fs"
	"flashwear/internal/simclock"
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

// pattern fills p with bytes that depend on the file offset and a tag, so
// a misplaced or stale block changes the image.
func pattern(p []byte, off int64, tag byte) {
	for i := range p {
		x := off + int64(i)
		p[i] = byte(x) ^ byte(x>>8) ^ byte(x>>16) ^ tag
	}
}

// TestNodeImagePinned pins the bytes f2fs leaves on a device after a fixed
// script that reaches every writer of a node's pointer area: direct and
// indirect slots, truncation inside and below the indirect range, removal,
// cleaning, roll-forward recovery and a clean remount.
func TestNodeImagePinned(t *testing.T) {
	const want = "4b44852abd5bdbe5493646a81a03ee90920e00113110d43aa1e4b82c7b836149"
	dev, err := blockdev.NewMem(16<<20, 512)
	if err != nil {
		t.Fatal(err)
	}
	if err := Mkfs(dev); err != nil {
		t.Fatal(err)
	}
	mount := func() *FS {
		t.Helper()
		v, err := Mount(dev, fs.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	create := func(v *FS, path string) fs.File {
		t.Helper()
		f, err := v.Create(path)
		must(err)
		return f
	}
	write := func(f fs.File, off int64, n int, tag byte) {
		t.Helper()
		p := make([]byte, n)
		pattern(p, off, tag)
		_, err := f.WriteAt(p, off)
		must(err)
	}

	v := mount()
	big := create(v, "/big")
	const bigBlocks = NDirect + 256 // 3 MiB: a quarter of the way into the first indirect node
	for off := int64(0); off < bigBlocks*BlockSize; off += 64 << 10 {
		write(big, off, 64<<10, 1)
	}
	must(big.Sync())
	// Ballast that stays valid, so reclaiming space means relocating blocks.
	ballast := create(v, "/ballast")
	for off := int64(0); off < 9<<20; off += 64 << 10 {
		write(ballast, off, 64<<10, 8)
	}
	must(ballast.Sync())
	small := create(v, "/small")
	write(small, 0, 10<<10, 2)
	must(small.Sync())
	must(v.Mkdir("/d"))
	x := create(v, "/d/x")
	write(x, 100, 5000, 3)
	must(x.Sync())

	// Strided sync rewrites of /big until the log has wrapped and cleaned.
	for i := 0; i < 3000; i++ {
		blk := int64(i*37) % bigBlocks
		write(big, blk*BlockSize, BlockSize, byte(i))
		if i%8 == 7 {
			must(big.Sync())
		}
	}
	must(big.Sync())
	if v.Stats().CleanedSegments == 0 {
		t.Fatal("script never cleaned a segment")
	}

	must(big.Truncate((NDirect + 100) * BlockSize))         // inside the indirect range
	write(big, (NDirect+IndirectPtrs+5)*BlockSize, 3000, 4) // sparse, second indirect node
	must(big.Sync())
	must(big.Truncate(NDirect / 2 * BlockSize)) // releases both indirect nodes
	must(v.Remove("/small"))

	// Fsynced but not checkpointed, then a crash: roll-forward re-applies it.
	write(big, (NDirect+7)*BlockSize, BlockSize, 5)
	must(big.Sync())
	v.SimulateCrash()
	v = mount()
	if v.Stats().RolledForward == 0 {
		t.Fatal("script's crash rolled nothing forward")
	}
	big, err = v.Open("/big")
	must(err)
	write(big, (NDirect+8)*BlockSize, 2*BlockSize, 6)
	must(big.Sync())
	write(create(v, "/after"), 0, 777, 7)
	must(v.Unmount())
	v = mount()
	must(v.Unmount())

	rep, err := Check(dev)
	must(err)
	if !rep.Clean() {
		t.Fatalf("check: %v", rep.Corruptions)
	}
	sum := sha256.Sum256(deviceBytes(t, dev))
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("device image sha256 = %s, want %s", got, want)
	}
}

// TestSyncedNodeBlockIsPrivate: once a node block has been written, later
// in-memory changes to the node must not reach the device's copy — neither
// a RAM device's nor a full hybrid flash stack's (cache pool, FTL, NAND).
func TestSyncedNodeBlockIsPrivate(t *testing.T) {
	flash, err := device.New(device.ProfileEMMC16().Scaled(256), simclock.New())
	if err != nil {
		t.Fatal(err)
	}
	mem, err := blockdev.NewMem(64<<20, 512)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		dev  blockdev.Device
	}{{"mem", mem}, {"hybrid flash", flash}} {
		name, dev := tc.name, tc.dev
		if err := Mkfs(dev); err != nil {
			t.Fatal(err)
		}
		v, err := Mount(dev, fs.Options{})
		if err != nil {
			t.Fatal(err)
		}
		f, err := v.Create("/a")
		if err != nil {
			t.Fatal(err)
		}
		blk := bytes.Repeat([]byte{0x5A}, BlockSize)
		for _, fileBlk := range []int64{3, NDirect + 3} {
			if _, err := f.WriteAt(blk, fileBlk*BlockSize); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		in := nodeOf(t, v, "a")
		ind, _, err := v.mapSlot(in, NDirect+3, false)
		if err != nil || ind == nil {
			t.Fatalf("%s: no indirect node: %v", name, err)
		}
		addrs := []uint32{v.natLookup(in.id), v.natLookup(ind.id)}
		var synced [][]byte
		for _, a := range addrs {
			b, err := readBlock(dev, a)
			if err != nil {
				t.Fatal(err)
			}
			synced = append(synced, b)
		}
		// Move both pointers, grow the file and take a new mtime, in
		// memory only.
		for _, fileBlk := range []int64{3, 4, NDirect + 3, NDirect + 4, NDirect + IndirectPtrs} {
			if _, err := f.WriteAt(blk, fileBlk*BlockSize); err != nil {
				t.Fatal(err)
			}
		}
		for i, a := range addrs {
			b, err := readBlock(dev, a)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b, synced[i]) {
				t.Errorf("%s: node block %d changed on the device without a write", name, a)
			}
		}
	}
}

// residentDevice is a RAM device whose every sector is allocated up front
// and never dropped, so it allocates nothing itself and AllocsPerRun sees
// only the file system's allocations.
type residentDevice struct{ *blockdev.MemDevice }

func (residentDevice) Discard(off, length int64) error        { return nil }
func (residentDevice) WriteAccounted(off, length int64) error { return nil }

// TestSyncRewriteDoesNotAllocate: the attack app's inner loop — a 4 KiB
// synchronous rewrite under data accounting — appends the inode's own block
// image to the node log, so f2fs allocates nothing per write. The bound is
// an average: a checkpoint every checkpointInterval syncs stages NAT and
// checkpoint blocks.
func TestSyncRewriteDoesNotAllocate(t *testing.T) {
	mem, err := blockdev.NewMem(16<<20, BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	zero := make([]byte, BlockSize)
	for off := int64(0); off < mem.Size(); off += BlockSize {
		if err := mem.WriteAt(zero, off); err != nil {
			t.Fatal(err)
		}
	}
	dev := residentDevice{mem}
	if err := Mkfs(dev); err != nil {
		t.Fatal(err)
	}
	v, err := Mount(dev, fs.Options{DataAccounting: true})
	if err != nil {
		t.Fatal(err)
	}
	f, err := v.Create("/victim")
	if err != nil {
		t.Fatal(err)
	}
	const fileBlocks = 64
	payload := make([]byte, BlockSize)
	i := int64(0)
	rewrite := func() {
		if _, err := f.WriteAt(payload, i%fileBlocks*BlockSize); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for range fileBlocks {
		rewrite()
	}
	if n := testing.AllocsPerRun(4*checkpointInterval, rewrite); n != 0 {
		t.Fatalf("a 4 KiB sync rewrite allocates %v times on average, want 0", n)
	}
	if v.Stats().Checkpoints == 0 {
		t.Fatalf("run too short to checkpoint: %+v", v.Stats())
	}
}

// TestCheckpointAllocatesNothing: a checkpoint builds every dirty NAT block
// image and the checkpoint block in one scratch block, so its cost on the
// heap does not grow with the NAT blocks it writes.
func TestCheckpointAllocatesNothing(t *testing.T) {
	// 64 MiB has four NAT blocks. The device is sparse: only the sectors
	// written are held, and AllocsPerRun's warm-up run writes all of those
	// the measured runs write.
	dev, err := blockdev.NewMem(64<<20, BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := Mkfs(dev); err != nil {
		t.Fatal(err)
	}
	v, err := Mount(dev, fs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(v.natDirty) != 4 {
		t.Fatalf("%d NAT blocks, want 4", len(v.natDirty))
	}
	if n := testing.AllocsPerRun(10, func() {
		for i := range v.natDirty {
			v.natDirty[i] = true
		}
		if err := v.checkpointLocked(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("a checkpoint writing all %d NAT blocks allocates %v times, want 0", len(v.natDirty), n)
	}
}
