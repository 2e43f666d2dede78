package f2fs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"flashwear/internal/blockdev"
	"flashwear/internal/fs"
)

func newVolume(t *testing.T, sizeMiB int64, opts fs.Options) (*FS, *blockdev.MemDevice) {
	t.Helper()
	dev, err := blockdev.NewMem(sizeMiB<<20, 512)
	if err != nil {
		t.Fatal(err)
	}
	if err := Mkfs(dev); err != nil {
		t.Fatalf("Mkfs: %v", err)
	}
	v, err := Mount(dev, opts)
	if err != nil {
		t.Fatalf("Mount: %v", err)
	}
	return v, dev
}

// nodeOf returns the node of the file name in v's root directory, found
// through the root's slots.
func nodeOf(t *testing.T, v *FS, name string) *node {
	t.Helper()
	h := (*names)(v)
	root, err := h.Root()
	if err != nil {
		t.Fatal(err)
	}
	for off := int64(0); off+fs.DirentSize <= root.size; off += fs.DirentSize {
		b, err := h.Slot(root, off)
		if err != nil {
			t.Fatal(err)
		}
		if id, slotName, _ := fs.ParseDirent(b); id != 0 && string(slotName) == name {
			n, err := v.loadNode(id)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	t.Fatalf("no %s in the root directory", name)
	return nil
}

func TestMkfsTooSmall(t *testing.T) {
	dev, _ := blockdev.NewMem(512<<10, 512)
	if err := Mkfs(dev); err == nil {
		t.Fatal("Mkfs on 512KiB device succeeded")
	}
}

func TestMountRejectsBlankDevice(t *testing.T) {
	dev, _ := blockdev.NewMem(16<<20, 512)
	if _, err := Mount(dev, fs.Options{}); !errors.Is(err, ErrNotF2FS) {
		t.Fatalf("Mount(blank) err = %v, want ErrNotF2FS", err)
	}
}

func TestCreateWriteReadBack(t *testing.T) {
	v, _ := newVolume(t, 16, fs.Options{})
	f, err := v.Create("/hello.txt")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	msg := []byte("log structured merge")
	if _, err := f.WriteAt(msg, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if n, err := f.ReadAt(got, 0); err != nil || n != len(msg) {
		t.Fatalf("ReadAt = (%d, %v)", n, err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("read != written")
	}
}

func TestPersistenceAcrossRemount(t *testing.T) {
	v, dev := newVolume(t, 16, fs.Options{})
	f, _ := v.Create("/data.bin")
	payload := bytes.Repeat([]byte{0x42}, 20000)
	if _, err := f.WriteAt(payload, 0); err != nil {
		t.Fatal(err)
	}
	if err := v.Unmount(); err != nil {
		t.Fatalf("Unmount: %v", err)
	}
	v2, err := Mount(dev, fs.Options{})
	if err != nil {
		t.Fatalf("remount: %v", err)
	}
	f2, err := v2.Open("/data.bin")
	if err != nil {
		t.Fatalf("Open after remount: %v", err)
	}
	got := make([]byte, len(payload))
	if _, err := f2.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("data lost across remount")
	}
}

func TestLargeFileIndirectNodes(t *testing.T) {
	v, _ := newVolume(t, 32, fs.Options{})
	f, _ := v.Create("/big")
	// One block in the direct range and one behind an indirect node.
	offsets := []int64{3 * BlockSize, (NDirect + 37) * BlockSize}
	for i, off := range offsets {
		want := bytes.Repeat([]byte{byte(i + 1)}, BlockSize)
		if _, err := f.WriteAt(want, off); err != nil {
			t.Fatalf("WriteAt(%d): %v", off, err)
		}
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	for i, off := range offsets {
		got := make([]byte, BlockSize)
		if _, err := f.ReadAt(got, off); err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(i+1) {
			t.Fatalf("offset %d corrupted", off)
		}
	}
	// Hole reads as zero.
	hole := make([]byte, BlockSize)
	if _, err := f.ReadAt(hole, 100*BlockSize); err != nil {
		t.Fatal(err)
	}
	for _, b := range hole {
		if b != 0 {
			t.Fatal("hole not zero")
		}
	}
}

func TestOverwriteIsOutOfPlace(t *testing.T) {
	v, _ := newVolume(t, 16, fs.Options{})
	f, _ := v.Create("/f")
	if _, err := f.WriteAt(bytes.Repeat([]byte{1}, BlockSize), 0); err != nil {
		t.Fatal(err)
	}
	holder, slot, err := v.mapSlot(nodeOf(t, v, "f"), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	first, _ := v.ptrOf(holder, slot)
	if _, err := f.WriteAt(bytes.Repeat([]byte{2}, BlockSize), 0); err != nil {
		t.Fatal(err)
	}
	second, _ := v.ptrOf(holder, slot)
	if first == second {
		t.Fatal("overwrite reused the same block (not log-structured)")
	}
	got := make([]byte, BlockSize)
	_, _ = f.ReadAt(got, 0)
	if got[0] != 2 {
		t.Fatal("overwrite lost")
	}
}

func TestFsyncWritesNodePerSync(t *testing.T) {
	// The 2x mechanism of Figure 4: each 4 KiB synchronous write costs a
	// data block plus a node block.
	v, dev := newVolume(t, 16, fs.Options{})
	c := blockdev.NewCounting(dev)
	v.dev, v.pw = c, c
	f, _ := v.Create("/f")
	if _, err := f.WriteAt(make([]byte, 64*BlockSize), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	nodeBefore := v.Stats().NodeWrites
	bytesBefore := c.BytesWritten
	const syncs = 50
	for i := 0; i < syncs; i++ {
		if _, err := f.WriteAt(make([]byte, BlockSize), int64(i%64)*BlockSize); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	nodeWrites := v.Stats().NodeWrites - nodeBefore
	if nodeWrites < syncs {
		t.Fatalf("node writes = %d for %d fsyncs, want >= %d", nodeWrites, syncs, syncs)
	}
	wa := float64(c.BytesWritten-bytesBefore) / float64(syncs*BlockSize)
	if wa < 1.8 || wa > 2.6 {
		t.Fatalf("f2fs sync-write amplification = %.2f, want ~2 (Figure 4)", wa)
	}
}

func TestDirectories(t *testing.T) {
	v, _ := newVolume(t, 16, fs.Options{})
	if err := v.Mkdir("/a"); err != nil {
		t.Fatal(err)
	}
	if err := v.Mkdir("/a/b"); err != nil {
		t.Fatal(err)
	}
	if err := v.Mkdir("/a"); !errors.Is(err, fs.ErrExist) {
		t.Fatalf("duplicate Mkdir err = %v", err)
	}
	f, err := v.Create("/a/b/c.txt")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = f.WriteAt([]byte("x"), 0)
	ents, err := v.ReadDir("/a/b")
	if err != nil || len(ents) != 1 || ents[0].Name != "c.txt" {
		t.Fatalf("ReadDir = %+v, %v", ents, err)
	}
	info, err := v.Stat("/a/b/c.txt")
	if err != nil || info.Size != 1 || info.IsDir {
		t.Fatalf("Stat = %+v, %v", info, err)
	}
}

func TestRemoveSemantics(t *testing.T) {
	v, _ := newVolume(t, 16, fs.Options{})
	if err := v.Remove("/nope"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Remove missing err = %v", err)
	}
	_ = v.Mkdir("/d")
	f, _ := v.Create("/d/x")
	_ = f.Close()
	if err := v.Remove("/d"); !errors.Is(err, fs.ErrNotEmpty) {
		t.Fatalf("Remove non-empty dir err = %v", err)
	}
	if err := v.Remove("/d/x"); err != nil {
		t.Fatal(err)
	}
	if err := v.Remove("/d"); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Open("/d/x"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatal("removed file still resolvable")
	}
}

func TestCleaningReclaimsSpace(t *testing.T) {
	// Rewrite a file far more than the volume size: cleaning must keep up.
	v, _ := newVolume(t, 16, fs.Options{})
	f, _ := v.Create("/churn")
	const fileBlocks = 256
	if _, err := f.WriteAt(make([]byte, fileBlocks*BlockSize), 0); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	// 16 MiB volume, rewrite ~48 MiB.
	for i := 0; i < 12000; i++ {
		blk := int64(rng.Intn(fileBlocks))
		if _, err := f.WriteAt(make([]byte, BlockSize), blk*BlockSize); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if i%100 == 0 {
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if v.Stats().CleanedSegments == 0 && v.Stats().Checkpoints == 0 {
		t.Fatal("no cleaning or checkpoints under churn")
	}
}

func TestCrashRollForwardRecoversFsyncedData(t *testing.T) {
	v, dev := newVolume(t, 16, fs.Options{})
	f, _ := v.Create("/durable")
	payload := bytes.Repeat([]byte{0x5C}, 2*BlockSize)
	if _, err := f.WriteAt(payload, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil { // fsync, no checkpoint
		t.Fatal(err)
	}
	if v.Stats().Checkpoints != 0 {
		t.Skip("unexpected checkpoint; roll-forward not exercised")
	}
	v.SimulateCrash()
	v2, err := Mount(dev, fs.Options{})
	if err != nil {
		t.Fatalf("mount after crash: %v", err)
	}
	if v2.Stats().RolledForward == 0 {
		t.Fatal("nothing rolled forward")
	}
	f2, err := v2.Open("/durable")
	if err != nil {
		t.Fatalf("fsynced file lost after crash: %v", err)
	}
	got := make([]byte, len(payload))
	if _, err := f2.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("fsynced data corrupted across crash")
	}
}

func TestCrashUnsyncedDataDoesNotCorrupt(t *testing.T) {
	v, dev := newVolume(t, 16, fs.Options{})
	fa, _ := v.Create("/synced")
	if _, err := fa.WriteAt([]byte("ok"), 0); err != nil {
		t.Fatal(err)
	}
	if err := fa.Sync(); err != nil {
		t.Fatal(err)
	}
	// Write without sync; crash. (Create itself is fsync-marked, so the
	// file exists, but the write may be lost.)
	fb, _ := v.Create("/unsynced")
	if _, err := fb.WriteAt(bytes.Repeat([]byte{9}, BlockSize), 0); err != nil {
		t.Fatal(err)
	}
	v.SimulateCrash()
	v2, err := Mount(dev, fs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v2.Open("/synced"); err != nil {
		t.Fatalf("synced file lost: %v", err)
	}
	info, err := v2.Stat("/unsynced")
	if err != nil {
		t.Fatalf("created (fsynced) file lost: %v", err)
	}
	if info.Size != 0 {
		t.Fatalf("unsynced write survived with size %d, want 0", info.Size)
	}
}

func TestCrashRemovedFileStaysRemoved(t *testing.T) {
	v, dev := newVolume(t, 16, fs.Options{})
	f, _ := v.Create("/gone")
	if _, err := f.WriteAt([]byte("bye"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := v.Remove("/gone"); err != nil {
		t.Fatal(err)
	}
	v.SimulateCrash()
	v2, err := Mount(dev, fs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v2.Open("/gone"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("dead-node marker failed: removed file came back (%v)", err)
	}
}

func TestTruncate(t *testing.T) {
	v, _ := newVolume(t, 16, fs.Options{})
	f, _ := v.Create("/f")
	_, _ = f.WriteAt(bytes.Repeat([]byte{7}, 5*BlockSize), 0)
	if err := f.Truncate(BlockSize); err != nil {
		t.Fatal(err)
	}
	if f.Size() != BlockSize {
		t.Fatalf("size = %d", f.Size())
	}
	got := make([]byte, 2*BlockSize)
	n, _ := f.ReadAt(got, 0)
	if n != BlockSize {
		t.Fatalf("read %d, want %d", n, BlockSize)
	}
	if err := f.Truncate(3 * BlockSize); err != nil {
		t.Fatal(err)
	}
	if f.Size() != 3*BlockSize {
		t.Fatal("grow failed")
	}
}

func TestDataAccountingMode(t *testing.T) {
	v, _ := newVolume(t, 16, fs.Options{DataAccounting: true})
	f, _ := v.Create("/f")
	if _, err := f.WriteAt(bytes.Repeat([]byte{5}, 2*BlockSize), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, BlockSize)
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("accounting mode retained payload")
		}
	}
	// Directories remain real: listing still works after unmount+mount.
	if err := v.Unmount(); err != nil {
		t.Fatal(err)
	}
}

func TestUnalignedIO(t *testing.T) {
	v, _ := newVolume(t, 16, fs.Options{})
	f, _ := v.Create("/f")
	payload := bytes.Repeat([]byte{0xEE}, 3000)
	if _, err := f.WriteAt(payload, BlockSize-100); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 3000)
	if _, err := f.ReadAt(got, BlockSize-100); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("unaligned round trip failed")
	}
}

func TestBadPaths(t *testing.T) {
	v, _ := newVolume(t, 16, fs.Options{})
	for _, p := range []string{"", "/", "/a/../b"} {
		if _, err := v.Create(p); err == nil {
			t.Errorf("Create(%q) succeeded", p)
		}
	}
	if _, err := v.Open("/"); !errors.Is(err, fs.ErrIsDir) {
		t.Errorf("Open(/) err = %v", err)
	}
}

func TestOperationsAfterUnmountFail(t *testing.T) {
	v, _ := newVolume(t, 16, fs.Options{})
	f, _ := v.Create("/f")
	if err := v.Unmount(); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Create("/g"); !errors.Is(err, fs.ErrUnmounted) {
		t.Errorf("Create after unmount err = %v", err)
	}
	if _, err := f.WriteAt([]byte("x"), 0); !errors.Is(err, fs.ErrUnmounted) {
		t.Errorf("WriteAt after unmount err = %v", err)
	}
}

func TestOutOfSpace(t *testing.T) {
	v, _ := newVolume(t, 8, fs.Options{})
	f, _ := v.Create("/f")
	buf := make([]byte, 64*BlockSize)
	var err error
	for i := int64(0); i < 100; i++ {
		if _, err = f.WriteAt(buf, i*int64(len(buf))); err != nil {
			break
		}
		if err = f.Sync(); err != nil {
			break
		}
	}
	if !errors.Is(err, fs.ErrNoSpace) {
		t.Fatalf("err = %v, want ErrNoSpace", err)
	}
}

func TestRandomizedWriteReadAgainstModel(t *testing.T) {
	v, _ := newVolume(t, 32, fs.Options{})
	f, _ := v.Create("/model")
	const fileBlocks = 400
	model := make([]byte, fileBlocks*BlockSize)
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 600; i++ {
		blk := rng.Intn(fileBlocks)
		val := byte(rng.Intn(255) + 1)
		chunk := bytes.Repeat([]byte{val}, BlockSize)
		copy(model[blk*BlockSize:], chunk)
		if _, err := f.WriteAt(chunk, int64(blk)*BlockSize); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if i%64 == 0 {
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	got := make([]byte, len(model))
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	sz := f.Size()
	if !bytes.Equal(got[:sz], model[:sz]) {
		t.Fatal("file diverged from model")
	}
}

func TestRenameBasics(t *testing.T) {
	v, _ := newVolume(t, 16, fs.Options{})
	f, _ := v.Create("/a.tmp")
	if _, err := f.WriteAt([]byte("payload"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := v.Rename("/a.tmp", "/a"); err != nil {
		t.Fatalf("Rename: %v", err)
	}
	if _, err := v.Open("/a.tmp"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatal("source still exists")
	}
	g, err := v.Open("/a")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 7)
	if _, err := g.ReadAt(got, 0); err != nil || string(got) != "payload" {
		t.Fatalf("content lost: %q %v", got, err)
	}
}

func TestRenameReplacesTargetAndSurvivesCrash(t *testing.T) {
	v, dev := newVolume(t, 16, fs.Options{})
	oldF, _ := v.Create("/cfg")
	_, _ = oldF.WriteAt([]byte("v1"), 0)
	_ = oldF.Sync()
	newF, _ := v.Create("/cfg.tmp")
	_, _ = newF.WriteAt([]byte("v2"), 0)
	_ = newF.Sync()
	if err := v.Rename("/cfg.tmp", "/cfg"); err != nil {
		t.Fatalf("replacing rename: %v", err)
	}
	v.SimulateCrash()
	v2, err := Mount(dev, fs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := v2.Open("/cfg")
	if err != nil {
		t.Fatalf("renamed file lost after crash: %v", err)
	}
	got := make([]byte, 2)
	if _, err := g.ReadAt(got, 0); err != nil || string(got) != "v2" {
		t.Fatalf("post-crash content = %q, want v2 (%v)", got, err)
	}
	if _, err := v2.Open("/cfg.tmp"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatal("both names exist after crash")
	}
	// Renaming onto a directory is refused.
	_ = v2.Mkdir("/d")
	f2, _ := v2.Create("/file")
	_ = f2.Close()
	if err := v2.Rename("/file", "/d"); !errors.Is(err, fs.ErrIsDir) {
		t.Fatalf("rename onto dir err = %v", err)
	}
}

// TestTornCheckpointFallsBack corrupts the newest checkpoint slot; mount
// must fall back to the older valid one instead of failing.
func TestTornCheckpointFallsBack(t *testing.T) {
	v, dev := newVolume(t, 16, fs.Options{})
	f, _ := v.Create("/a")
	if _, err := f.WriteAt(bytes.Repeat([]byte{1}, BlockSize), 0); err != nil {
		t.Fatal(err)
	}
	if err := v.Sync(); err != nil { // checkpoint into slot A
		t.Fatal(err)
	}
	if _, err := f.WriteAt(bytes.Repeat([]byte{2}, BlockSize), BlockSize); err != nil {
		t.Fatal(err)
	}
	if err := v.Sync(); err != nil { // checkpoint into slot B
		t.Fatal(err)
	}
	cpStart := v.sb.cpStart
	newest := v.cpIndex ^ 1 // the slot just written
	v.SimulateCrash()
	// Tear the newest checkpoint's trailing ver copy.
	blk := make([]byte, BlockSize)
	if err := dev.ReadAt(blk, int64(cpStart+uint32(newest))*BlockSize); err != nil {
		t.Fatal(err)
	}
	blk[BlockSize-1] ^= 0xFF
	if err := dev.WriteAt(blk, int64(cpStart+uint32(newest))*BlockSize); err != nil {
		t.Fatal(err)
	}
	v2, err := Mount(dev, fs.Options{})
	if err != nil {
		t.Fatalf("mount with torn checkpoint: %v", err)
	}
	if _, err := v2.Open("/a"); err != nil {
		t.Fatalf("file lost after checkpoint fallback: %v", err)
	}
}

func TestCheckCleanVolume(t *testing.T) {
	v, dev := newVolume(t, 16, fs.Options{})
	f, _ := v.Create("/a")
	if _, err := f.WriteAt(make([]byte, 20*BlockSize), 0); err != nil {
		t.Fatal(err)
	}
	if err := v.Unmount(); err != nil {
		t.Fatal(err)
	}
	rep, err := Check(dev)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("clean volume reported corrupt: %v", rep.Corruptions)
	}
	if rep.LiveNodes < 2 { // root + /a
		t.Fatalf("LiveNodes = %d", rep.LiveNodes)
	}
	if rep.LiveDataBlocks < 20 {
		t.Fatalf("LiveDataBlocks = %d", rep.LiveDataBlocks)
	}
}

func TestCheckAfterCrash(t *testing.T) {
	v, dev := newVolume(t, 16, fs.Options{})
	for i := 0; i < 6; i++ {
		f, _ := v.Create(fmt.Sprintf("/f%d", i))
		if _, err := f.WriteAt(make([]byte, 8*BlockSize), 0); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	v.SimulateCrash()
	v2, err := Mount(dev, fs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := v2.Unmount(); err != nil {
		t.Fatal(err)
	}
	rep, err := Check(dev)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("post-recovery corruption: %v", rep.Corruptions)
	}
}

func TestCheckDetectsCorruptNAT(t *testing.T) {
	v, dev := newVolume(t, 16, fs.Options{})
	f, _ := v.Create("/a")
	if _, err := f.WriteAt(make([]byte, BlockSize), 0); err != nil {
		t.Fatal(err)
	}
	if err := v.Unmount(); err != nil {
		t.Fatal(err)
	}
	// Point NAT[RootNode] somewhere ridiculous.
	sbBlk := make([]byte, BlockSize)
	if err := dev.ReadAt(sbBlk, 0); err != nil {
		t.Fatal(err)
	}
	sb, err := decodeSuperblock(sbBlk)
	if err != nil {
		t.Fatal(err)
	}
	nb := make([]byte, BlockSize)
	if err := dev.ReadAt(nb, int64(sb.natStart)*BlockSize); err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(nb[RootNode*4:], sb.totalBlocks+999)
	if err := dev.WriteAt(nb, int64(sb.natStart)*BlockSize); err != nil {
		t.Fatal(err)
	}
	rep, err := Check(dev)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("corrupt NAT not detected")
	}
}

// TestIndirectSlotBound pins node.nIndir, the bound fsync walks indirect
// slots to, against a scan of every slot: through growth past the direct
// range, a remount (decodeNode) and truncation.
func TestIndirectSlotBound(t *testing.T) {
	v, dev := newVolume(t, 32, fs.Options{})
	check := func(v *FS, when string, want int64) {
		t.Helper()
		n := nodeOf(t, v, "big")
		var scan int64
		for w := int64(0); w < NIndirectIDs; w++ {
			if n.indirectID(w) != 0 {
				scan = w + 1
			}
		}
		if n.nIndir != scan || scan != want {
			t.Errorf("%s: nIndir %d, slot scan %d, want %d", when, n.nIndir, scan, want)
		}
	}
	f, _ := v.Create("/big")
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	check(v, "direct only", 0)
	block := bytes.Repeat([]byte{7}, BlockSize)
	for _, slot := range []int64{NDirect + 5, NDirect + 2*IndirectPtrs + 1} {
		if _, err := f.WriteAt(block, slot*BlockSize); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	check(v, "after growth", 3)
	if err := v.Unmount(); err != nil {
		t.Fatal(err)
	}
	v2, err := Mount(dev, fs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	check(v2, "after remount", 3)
	f2, _ := v2.Open("/big")
	if err := f2.Truncate((NDirect + 10) * BlockSize); err != nil {
		t.Fatal(err)
	}
	check(v2, "after truncating into the first indirect node", 1)
	if err := f2.Truncate(BlockSize); err != nil {
		t.Fatal(err)
	}
	check(v2, "after truncating into the direct range", 0)
}

// Stats reports FS-internal activity.
type Stats struct {
	NodeWrites      int64
	DataWrites      int64 // file-content block writes through the data log
	Checkpoints     int64
	CleanedSegments int64
	RolledForward   int64
	FreeSegments    int
}

// Stats returns internal counters.
func (v *FS) Stats() Stats {
	return Stats{
		NodeWrites:      v.statNodeWrites,
		DataWrites:      v.statDataWrites,
		Checkpoints:     v.statCheckpoints,
		CleanedSegments: v.statCleanedSegs,
		RolledForward:   v.statRolledForward,
		FreeSegments:    v.freeSegs,
	}
}
