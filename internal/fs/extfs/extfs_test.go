package extfs

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"flashwear/internal/blockdev"
	"flashwear/internal/fs"
)

// newVolume formats and mounts a RAM-backed volume.
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

func TestMkfsTooSmall(t *testing.T) {
	dev, _ := blockdev.NewMem(64<<10, 512)
	if err := Mkfs(dev); err == nil {
		t.Fatal("Mkfs on 64KiB device succeeded")
	}
}

func TestMountRejectsBlankDevice(t *testing.T) {
	dev, _ := blockdev.NewMem(8<<20, 512)
	if _, err := Mount(dev, fs.Options{}); !errors.Is(err, ErrNotExtfs) {
		t.Fatalf("Mount(blank) err = %v, want ErrNotExtfs", err)
	}
}

// TestMountRejectsVolumeLargerThanDevice: a superblock claiming more
// blocks than the device holds is corrupt, not a table to allocate.
func TestMountRejectsVolumeLargerThanDevice(t *testing.T) {
	big, _ := newVolume(t, 8, fs.Options{})
	if err := big.Unmount(); err != nil {
		t.Fatal(err)
	}
	sb, err := readBlock(big.dev, 0)
	if err != nil {
		t.Fatal(err)
	}
	small, _ := blockdev.NewMem(4<<20, 512)
	if err := writeBlock(small, 0, sb); err != nil {
		t.Fatal(err)
	}
	if _, err := Mount(small, fs.Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Mount of an 8 MiB volume on a 4 MiB device: %v, want ErrCorrupt", err)
	}
}

func TestCreateWriteReadBack(t *testing.T) {
	v, _ := newVolume(t, 8, fs.Options{})
	f, err := v.Create("/hello.txt")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	msg := []byte("the quick brown fox")
	if _, err := f.WriteAt(msg, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	n, err := f.ReadAt(got, 0)
	if err != nil || n != len(msg) {
		t.Fatalf("ReadAt = (%d, %v)", n, err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("read != written")
	}
	if f.Size() != int64(len(msg)) {
		t.Fatalf("Size = %d", f.Size())
	}
}

func TestPersistenceAcrossRemount(t *testing.T) {
	v, dev := newVolume(t, 8, fs.Options{})
	f, _ := v.Create("/data.bin")
	payload := bytes.Repeat([]byte{0x42}, 10000)
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

func TestLargeFileIndirectMapping(t *testing.T) {
	// > 12 direct + some of the indirect range, with double-indirect
	// coverage: write past NDirect+PtrsPerBlk blocks.
	v, _ := newVolume(t, 40, fs.Options{})
	f, _ := v.Create("/big")
	// Touch a direct, an indirect, and a double-indirect block.
	offsets := []int64{
		0,                                        // direct
		(NDirect + 5) * BlockSize,                // single indirect
		(NDirect + PtrsPerBlk + 700) * BlockSize, // double indirect
	}
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
			t.Fatalf("ReadAt(%d): %v", off, err)
		}
		if got[0] != byte(i+1) || got[BlockSize-1] != byte(i+1) {
			t.Fatalf("offset %d corrupted", off)
		}
	}
	// The hole between them reads zero.
	hole := make([]byte, BlockSize)
	if _, err := f.ReadAt(hole, 5*BlockSize); err != nil {
		t.Fatal(err)
	}
	for _, b := range hole {
		if b != 0 {
			t.Fatal("hole not zero")
		}
	}
}

func TestDirectoriesNested(t *testing.T) {
	v, _ := newVolume(t, 8, fs.Options{})
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
	if _, err := f.WriteAt([]byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	ents, err := v.ReadDir("/a/b")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name != "c.txt" || ents[0].IsDir {
		t.Fatalf("ReadDir = %+v", ents)
	}
	ents, _ = v.ReadDir("/")
	if len(ents) != 1 || ents[0].Name != "a" || !ents[0].IsDir {
		t.Fatalf("root ReadDir = %+v", ents)
	}
	info, err := v.Stat("/a/b/c.txt")
	if err != nil || info.IsDir || info.Size != 1 {
		t.Fatalf("Stat = %+v, %v", info, err)
	}
}

func TestRemoveFileFreesSpace(t *testing.T) {
	v, _ := newVolume(t, 8, fs.Options{})
	// Warm up the root directory's entry block so it doesn't count as a
	// "leak" below.
	warm, _ := v.Create("/warm")
	_ = warm.Close()
	if err := v.Remove("/warm"); err != nil {
		t.Fatal(err)
	}
	if err := v.checkpoint(); err != nil {
		t.Fatal(err)
	}
	before := v.Stats().FreeBlocks
	f, _ := v.Create("/f")
	if _, err := f.WriteAt(make([]byte, 100*BlockSize), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := v.Remove("/f"); err != nil {
		t.Fatal(err)
	}
	if err := v.checkpoint(); err != nil { // drain quarantine
		t.Fatal(err)
	}
	after := v.Stats().FreeBlocks
	if after < before {
		t.Fatalf("space leaked: before %d, after %d", before, after)
	}
	if _, err := v.Open("/f"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Open(removed) err = %v", err)
	}
}

func TestRemoveSemantics(t *testing.T) {
	v, _ := newVolume(t, 8, fs.Options{})
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
}

func TestCreateTruncatesExisting(t *testing.T) {
	v, _ := newVolume(t, 8, fs.Options{})
	f, _ := v.Create("/f")
	_, _ = f.WriteAt(bytes.Repeat([]byte{1}, 8192), 0)
	_ = f.Sync()
	f2, err := v.Create("/f")
	if err != nil {
		t.Fatal(err)
	}
	if f2.Size() != 0 {
		t.Fatalf("re-Create size = %d, want 0", f2.Size())
	}
}

func TestTruncateShrinkAndGrow(t *testing.T) {
	v, _ := newVolume(t, 8, fs.Options{})
	f, _ := v.Create("/f")
	_, _ = f.WriteAt(bytes.Repeat([]byte{7}, 5*BlockSize), 0)
	if err := f.Truncate(BlockSize + 10); err != nil {
		t.Fatal(err)
	}
	if f.Size() != BlockSize+10 {
		t.Fatalf("size = %d", f.Size())
	}
	got := make([]byte, 2*BlockSize)
	n, _ := f.ReadAt(got, 0)
	if n != BlockSize+10 {
		t.Fatalf("read %d bytes, want %d", n, BlockSize+10)
	}
	if err := f.Truncate(10 * BlockSize); err != nil {
		t.Fatal(err)
	}
	if f.Size() != 10*BlockSize {
		t.Fatal("grow failed")
	}
}

func TestUnalignedIO(t *testing.T) {
	v, _ := newVolume(t, 8, fs.Options{})
	f, _ := v.Create("/f")
	// Write straddling block boundaries at odd offsets.
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

func TestLazytimeAvoidsJournalPerOverwrite(t *testing.T) {
	v, _ := newVolume(t, 8, fs.Options{})
	f, _ := v.Create("/f")
	if _, err := f.WriteAt(make([]byte, 64*BlockSize), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	commitsBefore := v.Stats().JournalCommits
	// In-place overwrites: no allocation, timestamps only.
	for i := 0; i < 32; i++ {
		if _, err := f.WriteAt(make([]byte, BlockSize), int64(i)*BlockSize); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	commits := v.Stats().JournalCommits - commitsBefore
	if commits > 2 {
		t.Fatalf("lazytime: %d journal commits for 32 pure overwrites, want <= 2", commits)
	}
}

// residentDevice is a RAM device whose every sector is written up front and
// never dropped, so it allocates nothing itself and AllocsPerRun sees only
// the file system's allocations.
type residentDevice struct{ *blockdev.MemDevice }

func (residentDevice) Discard(off, length int64) error        { return nil }
func (residentDevice) WriteAccounted(off, length int64) error { return nil }

// TestSyncRewriteDoesNotAllocate: the attack app's inner loop — a 4 KiB
// rewrite and fsync under data accounting — stages nothing fresh: lazytime
// journals the inode every lazyFlushInterval syncs, and the journal builds
// its descriptor, commit record and superblock in one scratch block. On a
// 1 MiB volume's 8-block journal the runs commit and checkpoint.
func TestSyncRewriteDoesNotAllocate(t *testing.T) {
	mem, err := blockdev.NewMem(1<<20, 512)
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
	// One run is lazyFlushInterval rewrites, so each journals the inode once.
	interval := func() {
		for range lazyFlushInterval {
			rewrite()
		}
	}
	interval()
	interval()
	before := v.Stats()
	if n := testing.AllocsPerRun(8, interval); n != 0 {
		t.Fatalf("%d 4 KiB rewrites and Syncs allocate %v times, want 0", lazyFlushInterval, n)
	}
	if after := v.Stats(); after.JournalCommits-before.JournalCommits != 9 || after.CheckpointWrites == before.CheckpointWrites {
		t.Fatalf("want 9 commits and a checkpoint in the runs: %+v -> %+v", before, after)
	}
}

func TestCrashRecoveryReplaysJournal(t *testing.T) {
	v, dev := newVolume(t, 8, fs.Options{})
	f, _ := v.Create("/important")
	payload := bytes.Repeat([]byte{0x77}, 3*BlockSize)
	if _, err := f.WriteAt(payload, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil { // journal committed, NOT checkpointed
		t.Fatal(err)
	}
	v.SimulateCrash()

	v2, err := Mount(dev, fs.Options{})
	if err != nil {
		t.Fatalf("mount after crash: %v", err)
	}
	if v2.Stats().ReplayedTxns == 0 {
		t.Fatal("no transactions replayed after crash")
	}
	f2, err := v2.Open("/important")
	if err != nil {
		t.Fatalf("file lost after crash: %v", err)
	}
	got := make([]byte, len(payload))
	if _, err := f2.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("data corrupted across crash")
	}
}

func TestCrashBeforeCommitLosesNothingCommitted(t *testing.T) {
	v, dev := newVolume(t, 8, fs.Options{})
	fa, _ := v.Create("/committed")
	if _, err := fa.WriteAt([]byte("safe"), 0); err != nil {
		t.Fatal(err)
	}
	if err := fa.Sync(); err != nil {
		t.Fatal(err)
	}
	// A second file is created but the volume crashes before its inode
	// journals (Create commits, so write without sync instead).
	fb, _ := v.Create("/uncommitted")
	if _, err := fb.WriteAt(bytes.Repeat([]byte{9}, BlockSize*2), 0); err != nil {
		t.Fatal(err)
	}
	v.SimulateCrash()
	v2, err := Mount(dev, fs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v2.Open("/committed"); err != nil {
		t.Fatalf("committed file lost: %v", err)
	}
	// The uncommitted file exists (Create committed) but its post-crash
	// size must be the committed one (0).
	info, err := v2.Stat("/uncommitted")
	if err != nil {
		t.Fatalf("uncommitted file should exist: %v", err)
	}
	if info.Size != 0 {
		t.Fatalf("uncommitted size = %d, want 0 (ordered-mode guarantee)", info.Size)
	}
}

func TestJournalWrapsViaCheckpoint(t *testing.T) {
	v, _ := newVolume(t, 8, fs.Options{})
	// Force many hard-metadata transactions to wrap the journal.
	for i := 0; i < 500; i++ {
		name := "/f" + string(rune('a'+i%26)) + string(rune('0'+i%10))
		f, err := v.Create(name)
		if err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
		if _, err := f.WriteAt([]byte("x"), 0); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := v.Remove(name); err != nil {
			t.Fatal(err)
		}
	}
	if v.Stats().CheckpointWrites == 0 {
		t.Fatal("journal never checkpointed despite heavy metadata traffic")
	}
}

// TestTransactionLargerThanJournal: a 1 MiB volume has an 8-block journal,
// and a Sync over seven files that each just grew an indirect block is a
// 9-block transaction. It must go home directly, not run past the journal
// over the root directory, and the bitmap block the previous Sync journaled
// must not be checkpointed over it afterwards.
func TestTransactionLargerThanJournal(t *testing.T) {
	v, dev := newVolume(t, 1, fs.Options{})
	if v.sb.jBlks != 8 {
		t.Fatalf("jBlks = %d, want 8", v.sb.jBlks)
	}
	const files, blocks = 8, NDirect + 1
	content := func(i int) []byte { return bytes.Repeat([]byte{byte(0xA0 + i)}, blocks*BlockSize) }
	var open []fs.File
	for i := range files {
		f, err := v.Create(fmt.Sprintf("/f%d", i))
		if err != nil {
			t.Fatal(err)
		}
		open = append(open, f)
	}
	for i, f := range open {
		if _, err := f.WriteAt(content(i), 0); err != nil {
			t.Fatal(err)
		}
		if i == 0 || i == files-1 {
			if i == files-1 && len(v.txn) != files-1 {
				t.Fatalf("staged %d indirect blocks, want %d", len(v.txn), files-1)
			}
			if err := v.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := v.Unmount(); err != nil {
		t.Fatal(err)
	}
	v2, err := Mount(dev, fs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range files {
		f, err := v2.Open(fmt.Sprintf("/f%d", i))
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, blocks*BlockSize)
		if n, err := f.ReadAt(got, 0); err != nil || n != len(got) {
			t.Fatalf("/f%d: ReadAt = (%d, %v)", i, n, err)
		}
		if !bytes.Equal(got, content(i)) {
			t.Fatalf("/f%d: content changed", i)
		}
	}
	if err := v2.Unmount(); err != nil {
		t.Fatal(err)
	}
	rep, err := Fsck(dev)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("corruption: %v", rep.Corruptions)
	}
}

func TestDataAccountingMode(t *testing.T) {
	v, _ := newVolume(t, 8, fs.Options{DataAccounting: true})
	f, _ := v.Create("/f")
	if _, err := f.WriteAt(bytes.Repeat([]byte{5}, 2*BlockSize), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	// Content reads as zeroes, size is tracked.
	got := make([]byte, BlockSize)
	n, err := f.ReadAt(got, 0)
	if err != nil || n != BlockSize {
		t.Fatalf("ReadAt = (%d, %v)", n, err)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("accounting mode retained payload")
		}
	}
	if f.Size() != 2*BlockSize {
		t.Fatal("size lost in accounting mode")
	}
	// Metadata is still real: remount sees the file.
	if err := v.Unmount(); err != nil {
		t.Fatal(err)
	}
}

func TestBadPaths(t *testing.T) {
	v, _ := newVolume(t, 8, fs.Options{})
	for _, p := range []string{"", "/", "/a/../b", "/."} {
		if _, err := v.Create(p); err == nil {
			t.Errorf("Create(%q) succeeded", p)
		}
	}
	if _, err := v.Open("/missing"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("Open missing err = %v", err)
	}
	if _, err := v.Open("/"); !errors.Is(err, fs.ErrIsDir) {
		t.Errorf("Open(/) err = %v", err)
	}
	f, _ := v.Create("/f")
	_ = f.Close()
	if _, err := v.ReadDir("/f"); !errors.Is(err, fs.ErrNotDir) {
		t.Errorf("ReadDir(file) err = %v", err)
	}
	if _, err := v.Create("/f/child"); !errors.Is(err, fs.ErrNotDir) {
		t.Errorf("Create under file err = %v", err)
	}
}

func TestOutOfSpace(t *testing.T) {
	v, _ := newVolume(t, 2, fs.Options{})
	f, _ := v.Create("/f")
	buf := make([]byte, 64*BlockSize)
	var err error
	for i := int64(0); i < 100; i++ {
		if _, err = f.WriteAt(buf, i*int64(len(buf))); err != nil {
			break
		}
	}
	if !errors.Is(err, fs.ErrNoSpace) {
		t.Fatalf("err = %v, want ErrNoSpace", err)
	}
}

func TestOperationsAfterUnmountFail(t *testing.T) {
	v, _ := newVolume(t, 8, fs.Options{})
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
	if err := v.Unmount(); !errors.Is(err, fs.ErrUnmounted) {
		t.Errorf("double Unmount err = %v", err)
	}
}

func TestRandomizedWriteReadAgainstModel(t *testing.T) {
	// Property-style: random block writes mirrored in an in-memory model.
	v, _ := newVolume(t, 16, fs.Options{})
	f, _ := v.Create("/model")
	const fileBlocks = 300
	model := make([]byte, fileBlocks*BlockSize)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 400; i++ {
		blk := rng.Intn(fileBlocks)
		val := byte(rng.Intn(255) + 1)
		chunk := bytes.Repeat([]byte{val}, BlockSize)
		copy(model[blk*BlockSize:], chunk)
		if _, err := f.WriteAt(chunk, int64(blk)*BlockSize); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if i%50 == 0 {
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	got := make([]byte, len(model))
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	// Compare only up to the file's actual size.
	sz := f.Size()
	if !bytes.Equal(got[:sz], model[:sz]) {
		t.Fatal("file diverged from model")
	}
}

func TestReuseAfterRemoveManyFiles(t *testing.T) {
	v, _ := newVolume(t, 4, fs.Options{})
	// Create/delete cycles must not exhaust inodes or blocks.
	for cycle := 0; cycle < 30; cycle++ {
		f, err := v.Create("/cyc")
		if err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		if _, err := f.WriteAt(make([]byte, 50*BlockSize), 0); err != nil {
			t.Fatalf("cycle %d write: %v", cycle, err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := v.Remove("/cyc"); err != nil {
			t.Fatalf("cycle %d remove: %v", cycle, err)
		}
	}
}

func TestRenameBasics(t *testing.T) {
	v, _ := newVolume(t, 8, fs.Options{})
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
	if err := v.Rename("/missing", "/x"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("rename missing err = %v", err)
	}
}

func TestRenameReplacesTarget(t *testing.T) {
	v, _ := newVolume(t, 8, fs.Options{})
	oldF, _ := v.Create("/old")
	_, _ = oldF.WriteAt([]byte("old"), 0)
	newF, _ := v.Create("/new.tmp")
	_, _ = newF.WriteAt([]byte("new"), 0)
	_ = newF.Sync()
	if err := v.Rename("/new.tmp", "/old"); err != nil {
		t.Fatalf("replacing rename: %v", err)
	}
	g, err := v.Open("/old")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 3)
	if _, err := g.ReadAt(got, 0); err != nil || string(got) != "new" {
		t.Fatalf("target not replaced: %q %v", got, err)
	}
	ents, _ := v.ReadDir("/")
	if len(ents) != 1 {
		t.Fatalf("root has %d entries, want 1", len(ents))
	}
}

func TestRenameAcrossDirectories(t *testing.T) {
	v, _ := newVolume(t, 8, fs.Options{})
	_ = v.Mkdir("/src")
	_ = v.Mkdir("/dst")
	f, _ := v.Create("/src/f")
	_, _ = f.WriteAt([]byte("x"), 0)
	_ = f.Sync()
	if err := v.Rename("/src/f", "/dst/g"); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Stat("/dst/g"); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Stat("/src/f"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatal("source survived cross-dir rename")
	}
	// Renaming onto a directory is refused.
	g, _ := v.Create("/file")
	_ = g.Close()
	if err := v.Rename("/file", "/dst"); !errors.Is(err, fs.ErrIsDir) {
		t.Fatalf("rename onto dir err = %v", err)
	}
}

func TestRenameSurvivesCrash(t *testing.T) {
	v, dev := newVolume(t, 8, fs.Options{})
	f, _ := v.Create("/cfg.tmp")
	_, _ = f.WriteAt([]byte("v2"), 0)
	_ = f.Sync()
	if err := v.Rename("/cfg.tmp", "/cfg"); err != nil {
		t.Fatal(err)
	}
	v.SimulateCrash()
	v2, err := Mount(dev, fs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v2.Open("/cfg"); err != nil {
		t.Fatalf("renamed file lost after crash: %v", err)
	}
	if _, err := v2.Open("/cfg.tmp"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatal("both names exist after crash (non-atomic rename)")
	}
}

// TestTornCommitDiscarded corrupts a transaction's commit record on disk;
// replay must stop before it (the transaction never happened) and the
// volume must mount cleanly.
func TestTornCommitDiscarded(t *testing.T) {
	v, dev := newVolume(t, 8, fs.Options{})
	f, _ := v.Create("/a")
	if _, err := f.WriteAt(bytes.Repeat([]byte{1}, BlockSize), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil { // txn 1: committed
		t.Fatal(err)
	}
	// A second transaction...
	if _, err := f.WriteAt(bytes.Repeat([]byte{2}, BlockSize), BlockSize); err != nil {
		t.Fatal(err)
	}
	f2, _ := v.Create("/b") // hard metadata: forces a journal txn on sync
	if _, err := f2.WriteAt([]byte{9}, 0); err != nil {
		t.Fatal(err)
	}
	if err := f2.Sync(); err != nil {
		t.Fatal(err)
	}
	head := v.jHead // one past the last committed txn
	v.SimulateCrash()
	// Tear the LAST commit record (the block just before head).
	torn := make([]byte, BlockSize)
	if err := dev.ReadAt(torn, int64(head-1)*BlockSize); err != nil {
		t.Fatal(err)
	}
	torn[0] ^= 0xFF
	if err := dev.WriteAt(torn, int64(head-1)*BlockSize); err != nil {
		t.Fatal(err)
	}
	v2, err := Mount(dev, fs.Options{})
	if err != nil {
		t.Fatalf("mount after torn commit: %v", err)
	}
	// Txn 1's file exists; the volume works.
	if _, err := v2.Open("/a"); err != nil {
		t.Fatalf("first committed txn lost: %v", err)
	}
	g, err := v2.Create("/after")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.WriteAt([]byte("ok"), 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestFsckCleanVolume(t *testing.T) {
	v, dev := newVolume(t, 8, fs.Options{})
	_ = v.Mkdir("/d")
	f, _ := v.Create("/d/file")
	if _, err := f.WriteAt(make([]byte, 30*BlockSize), 0); err != nil {
		t.Fatal(err)
	}
	if err := v.Unmount(); err != nil {
		t.Fatal(err)
	}
	rep, err := Fsck(dev)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("clean volume reported corrupt: %v", rep.Corruptions)
	}
	if rep.Files != 1 || rep.Dirs != 2 { // root + /d
		t.Fatalf("files=%d dirs=%d", rep.Files, rep.Dirs)
	}
	if rep.LeakedBlocks != 0 {
		t.Fatalf("clean unmount leaked %d blocks", rep.LeakedBlocks)
	}
}

func TestFsckAfterCrashRecovery(t *testing.T) {
	v, dev := newVolume(t, 8, fs.Options{})
	for i := 0; i < 10; i++ {
		f, _ := v.Create(fmt.Sprintf("/f%d", i))
		if _, err := f.WriteAt(make([]byte, 10*BlockSize), 0); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	_ = v.Remove("/f3")
	_ = v.Remove("/f7")
	v.SimulateCrash()
	v2, err := Mount(dev, fs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := v2.Unmount(); err != nil {
		t.Fatal(err)
	}
	rep, err := Fsck(dev)
	if err != nil {
		t.Fatal(err)
	}
	// Recovery may leak quarantined blocks (legal) but must never leave
	// structural corruption.
	if !rep.Clean() {
		t.Fatalf("post-recovery corruption: %v", rep.Corruptions)
	}
	if rep.Files != 8 {
		t.Fatalf("files = %d, want 8", rep.Files)
	}
}

func TestFsckDetectsCorruption(t *testing.T) {
	v, dev := newVolume(t, 8, fs.Options{})
	f, _ := v.Create("/f")
	if _, err := f.WriteAt(make([]byte, 4*BlockSize), 0); err != nil {
		t.Fatal(err)
	}
	if err := v.Unmount(); err != nil {
		t.Fatal(err)
	}
	// Corrupt: clear an allocated data block's bitmap bit behind the
	// volume's back.
	sbBlk := make([]byte, BlockSize)
	if err := dev.ReadAt(sbBlk, 0); err != nil {
		t.Fatal(err)
	}
	sb, err := decodeSuperblock(sbBlk)
	if err != nil {
		t.Fatal(err)
	}
	bm := make([]byte, BlockSize)
	if err := dev.ReadAt(bm, int64(sb.bitmapStart)*BlockSize); err != nil {
		t.Fatal(err)
	}
	// Find a set bit in the data area and clear it.
	cleared := false
	for blk := sb.dataStart; blk < sb.totalBlocks && blk < sb.bitmapStart+BlockSize*8; blk++ {
		byteIdx, bit := blk/8, blk%8
		if bm[byteIdx]&(1<<bit) != 0 {
			bm[byteIdx] &^= 1 << bit
			cleared = true
			break
		}
	}
	if !cleared {
		t.Fatal("no allocated data block found to corrupt")
	}
	if err := dev.WriteAt(bm, int64(sb.bitmapStart)*BlockSize); err != nil {
		t.Fatal(err)
	}
	rep, err := Fsck(dev)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("fsck missed a deliberately corrupted bitmap")
	}
}

// Stats reports FS-internal activity.
type Stats struct {
	JournalCommits   int64
	JournalBlocks    int64 // journal-region block writes (desc + bodies + commit)
	CheckpointWrites int64
	DataBlocks       int64 // file-content block writes
	ReplayedTxns     int
	FreeBlocks       int64
}

// Stats returns internal counters.
func (v *FS) Stats() Stats {
	return Stats{
		JournalCommits:   v.statJournalCommits,
		JournalBlocks:    v.statJournalBlocks,
		CheckpointWrites: v.statCheckpointWrites,
		DataBlocks:       v.statDataBlocks,
		ReplayedTxns:     v.statReplayedTxns,
		FreeBlocks:       v.freeBlocks,
	}
}
