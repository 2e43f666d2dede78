package extfs

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"testing"

	"flashwear/internal/blockdev"
	"flashwear/internal/fs"
)

// TestNamespaceImagePinned pins the bytes extfs leaves on a device, and
// its counters, after a script that reaches every namespace operation:
// nested Mkdir and Create with writes, a directory grown past one block,
// Rename within a directory, across directories and onto an existing
// file, Remove of a file and of an empty directory, ReadDir, Stat and
// Sync, then a crash and a remount that replays the journal.
func TestNamespaceImagePinned(t *testing.T) {
	const (
		wantImage = "1f2156c8a919556ca40f5d248cfd7cde1ad3bf64d3935b9f0878fbbfb8048001"
		wantStats = "{JournalCommits:66 JournalBlocks:274 CheckpointWrites:38 DataBlocks:41 ReplayedTxns:0 FreeBlocks:1962} " +
			"{JournalCommits:0 JournalBlocks:0 CheckpointWrites:0 DataBlocks:0 ReplayedTxns:3 FreeBlocks:1962}"
	)
	dev, err := blockdev.NewMem(8<<20, 512)
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
	before := namespaceScript(t, v)
	stats := fmt.Sprintf("%+v", v.Stats())
	v.SimulateCrash()
	if v, err = Mount(dev, fs.Options{}); err != nil {
		t.Fatal(err)
	}
	if v.Stats().ReplayedTxns == 0 {
		t.Fatal("script's crash replayed nothing")
	}
	if after := listing(t, v); after != before {
		t.Fatalf("after the crash the tree is\n%s\nwant\n%s", after, before)
	}
	stats += fmt.Sprintf(" %+v", v.Stats())
	if err := v.Unmount(); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(deviceBytes(t, dev))
	if got := hex.EncodeToString(sum[:]); got != wantImage || stats != wantStats {
		t.Fatalf("device image sha256 = %s\nstats = %s\nwant %s\n%s", got, stats, wantImage, wantStats)
	}
}

// namespaceScript runs the namespace pin's script on v and returns the
// tree it leaves, every op of it synced.
func namespaceScript(t *testing.T, v fs.FileSystem) string {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	create := func(path string, n int, tag byte) {
		t.Helper()
		f, err := v.Create(path)
		must(err)
		_, err = f.WriteAt(bytes.Repeat([]byte{tag}, n), int64(tag)*100)
		must(err)
		must(f.Sync())
	}
	must(v.Mkdir("/a"))
	must(v.Mkdir("/a/b"))
	create("/a/b/f1", 5000, 1)
	create("/a/g", 9000, 2)
	for i := 0; i < 20; i++ { // 20 slots: /a/b grows past one block
		create(fmt.Sprintf("/a/b/n%02d", i), 300*i, byte(10+i))
	}
	must(v.Rename("/a/b/n03", "/a/b/m03"))
	must(v.Rename("/a/g", "/a/b/g"))
	must(v.Rename("/a/b/n05", "/a/b/f1"))
	must(v.Remove("/a/b/n07"))
	must(v.Mkdir("/e"))
	must(v.Mkdir("/e/empty"))
	must(v.Remove("/e/empty"))
	must(v.Sync())
	create("/a/b/late", 700, 40)
	must(v.Rename("/a/b/n18", "/e/n18"))
	must(v.Remove("/a/b/n19"))
	must(v.Remove("/e/n18"))
	must(v.Remove("/e"))
	create("/e2", 100, 41)
	return listing(t, v)
}

// listing walks the tree from the root: one line per entry, with its
// Stat.
func listing(t *testing.T, v fs.FileSystem) string {
	t.Helper()
	var out strings.Builder
	var walk func(dir string)
	walk = func(dir string) {
		ents, err := v.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			p := strings.TrimSuffix(dir, "/") + "/" + e.Name
			st, err := v.Stat(p)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&out, "%s %+v\n", p, st)
			if e.IsDir {
				walk(p)
			}
		}
	}
	walk("/")
	return out.String()
}

// TestCorruptSlotIsErrCorrupt: an in-use directory slot whose name length
// runs past the slot is corruption to every operation that reads it, not
// a name to trust.
func TestCorruptSlotIsErrCorrupt(t *testing.T) {
	v, dev := newVolume(t, 8, fs.Options{})
	for _, p := range []string{"/x", "/y"} {
		if _, err := v.Create(p); err != nil {
			t.Fatal(err)
		}
	}
	root, err := v.loadInode(RootIno)
	if err != nil {
		t.Fatal(err)
	}
	blk := root.direct[0]
	if err := v.Unmount(); err != nil {
		t.Fatal(err)
	}
	b, err := readBlock(dev, blk)
	if err != nil {
		t.Fatal(err)
	}
	b[4] = 255 // /x's slot, the first
	if err := writeBlock(dev, blk, b); err != nil {
		t.Fatal(err)
	}
	if v, err = Mount(dev, fs.Options{}); err != nil {
		t.Fatal(err)
	}
	corruptSlotContract(t, v, "/x", ErrCorrupt)
}

// corruptSlotContract checks that every namespace operation reaching the
// corrupt slot of name fails with corrupt.
func corruptSlotContract(t *testing.T, v fs.FileSystem, name string, corrupt error) {
	t.Helper()
	dir, _, _ := fs.DirBase(name)
	_, errReadDir := v.ReadDir(dir)
	_, errStat := v.Stat(name)
	_, errOpen := v.Open(name)
	errRemove := v.Remove(name)
	_, errCreate := v.Create(strings.TrimSuffix(dir, "/") + "/new")
	for i, err := range []error{errReadDir, errStat, errOpen, errRemove, errCreate} {
		if !errors.Is(err, corrupt) {
			op := []string{"ReadDir", "Stat", "Open", "Remove", "Create"}[i]
			t.Errorf("%s: err = %v, want %v", op, err, corrupt)
		}
	}
}
