// Package fstest is a conformance suite for fs.FileSystem implementations:
// both extfs and f2fs must pass the same behavioural contract, so workloads
// and experiments can treat them interchangeably.
package fstest

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"flashwear/internal/fs"
	"flashwear/internal/simrand"
)

// Factory creates a fresh, empty, mounted file system for one test.
type Factory func(t *testing.T) fs.FileSystem

// Run executes the conformance suite against the factory.
func Run(t *testing.T, mk Factory) {
	t.Run("CreateOpenRoundTrip", func(t *testing.T) { testCreateOpen(t, mk(t)) })
	t.Run("OverwriteVisible", func(t *testing.T) { testOverwrite(t, mk(t)) })
	t.Run("SparseHolesReadZero", func(t *testing.T) { testSparse(t, mk(t)) })
	t.Run("DirectoryTree", func(t *testing.T) { testDirTree(t, mk(t)) })
	t.Run("RemoveAndRecreate", func(t *testing.T) { testRemoveRecreate(t, mk(t)) })
	t.Run("RenameContract", func(t *testing.T) { testRename(t, mk(t)) })
	t.Run("TruncateContract", func(t *testing.T) { testTruncate(t, mk(t)) })
	t.Run("TruncateZeroesTail", func(t *testing.T) { testTruncateTail(t, mk(t)) })
	t.Run("ErrorContract", func(t *testing.T) { testErrors(t, mk(t)) })
	t.Run("HandleContract", func(t *testing.T) { testHandle(t, mk(t)) })
	t.Run("ManySmallFiles", func(t *testing.T) { testManyFiles(t, mk(t)) })
	t.Run("RandomizedAgainstModel", func(t *testing.T) { testRandomized(t, mk(t)) })
}

func testCreateOpen(t *testing.T, v fs.FileSystem) {
	f, err := v.Create("/a.bin")
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{0xAB}, 10_000)
	if n, err := f.WriteAt(want, 0); err != nil || n != len(want) {
		t.Fatalf("WriteAt = (%d, %v)", n, err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	g, err := v.Open("/a.bin")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if n, err := g.ReadAt(got, 0); err != nil || n != len(want) {
		t.Fatalf("ReadAt = (%d, %v)", n, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("content mismatch")
	}
	if g.Size() != int64(len(want)) {
		t.Fatalf("Size = %d", g.Size())
	}
}

func testOverwrite(t *testing.T, v fs.FileSystem) {
	f, _ := v.Create("/f")
	for round := byte(1); round <= 5; round++ {
		if _, err := f.WriteAt(bytes.Repeat([]byte{round}, 5000), 1000); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 5000)
		if _, err := f.ReadAt(got, 1000); err != nil {
			t.Fatal(err)
		}
		if got[0] != round || got[4999] != round {
			t.Fatalf("round %d: stale data", round)
		}
	}
}

func testSparse(t *testing.T, v fs.FileSystem) {
	f, _ := v.Create("/sparse")
	if _, err := f.WriteAt([]byte{1}, 100_000); err != nil {
		t.Fatal(err)
	}
	if f.Size() != 100_001 {
		t.Fatalf("Size = %d", f.Size())
	}
	got := make([]byte, 4096)
	if _, err := f.ReadAt(got, 50_000); err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != 0 {
			t.Fatalf("hole byte %d = %d", i, b)
		}
	}
}

func testDirTree(t *testing.T, v fs.FileSystem) {
	for _, dir := range []string{"/a", "/a/b", "/a/b/c"} {
		if err := v.Mkdir(dir); err != nil {
			t.Fatalf("Mkdir(%s): %v", dir, err)
		}
	}
	for i := 0; i < 5; i++ {
		f, err := v.Create(fmt.Sprintf("/a/b/c/f%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt([]byte{byte(i)}, 0); err != nil {
			t.Fatal(err)
		}
		_ = f.Close()
	}
	ents, err := v.ReadDir("/a/b/c")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 5 {
		t.Fatalf("entries = %d", len(ents))
	}
	info, err := v.Stat("/a/b")
	if err != nil || !info.IsDir {
		t.Fatalf("Stat dir: %+v %v", info, err)
	}
}

func testRemoveRecreate(t *testing.T, v fs.FileSystem) {
	for cycle := 0; cycle < 10; cycle++ {
		f, err := v.Create("/cyc")
		if err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		if _, err := f.WriteAt(bytes.Repeat([]byte{byte(cycle)}, 20_000), 0); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := v.Remove("/cyc"); err != nil {
			t.Fatal(err)
		}
		if _, err := v.Open("/cyc"); !errors.Is(err, fs.ErrNotExist) {
			t.Fatal("removed file still opens")
		}
	}
}

func testRename(t *testing.T, v fs.FileSystem) {
	f, _ := v.Create("/one")
	_, _ = f.WriteAt([]byte("one"), 0)
	_ = f.Sync()
	if err := v.Rename("/one", "/two"); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Open("/one"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatal("source survived")
	}
	g, err := v.Open("/two")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 3)
	if _, err := g.ReadAt(got, 0); err != nil || string(got) != "one" {
		t.Fatalf("content: %q %v", got, err)
	}
	// Replace semantics.
	h, _ := v.Create("/three")
	_, _ = h.WriteAt([]byte("333"), 0)
	_ = h.Sync()
	if err := v.Rename("/three", "/two"); err != nil {
		t.Fatal(err)
	}
	g2, _ := v.Open("/two")
	if _, err := g2.ReadAt(got, 0); err != nil || string(got) != "333" {
		t.Fatalf("replace failed: %q %v", got, err)
	}
	if err := v.Rename("/absent", "/x"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("rename missing = %v", err)
	}
}

func testTruncate(t *testing.T, v fs.FileSystem) {
	f, _ := v.Create("/t")
	if _, err := f.WriteAt(bytes.Repeat([]byte{7}, 50_000), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(10_000); err != nil {
		t.Fatal(err)
	}
	if f.Size() != 10_000 {
		t.Fatalf("Size = %d", f.Size())
	}
	got := make([]byte, 50_000)
	n, err := f.ReadAt(got, 0)
	if err != nil || n != 10_000 {
		t.Fatalf("ReadAt after shrink = (%d, %v)", n, err)
	}
	if err := f.Truncate(0); err != nil {
		t.Fatal(err)
	}
	if f.Size() != 0 {
		t.Fatal("truncate(0)")
	}
	if err := f.Truncate(-1); err == nil {
		t.Fatal("negative truncate accepted")
	}
}

// testTruncateTail checks that a shrink to an unaligned size zeroes the
// rest of the last kept block: growing the file again, by a write past
// EOF and a Truncate up, reads zeros from the new size on, where the old
// bytes were, and keeps reading them through a new handle after Sync.
func testTruncateTail(t *testing.T, v fs.FileSystem) {
	f, err := v.Create("/t")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(bytes.Repeat([]byte{0xA5}, 12_000), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(5000); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{1, 2, 3}, 9000); err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(20_000); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 20_000)
	copy(want, bytes.Repeat([]byte{0xA5}, 5000))
	copy(want[9000:], []byte{1, 2, 3})
	check := func(f fs.File, when string) {
		t.Helper()
		got := make([]byte, len(want)+1)
		n, err := f.ReadAt(got, 0)
		if err != nil || n != len(want) {
			t.Fatalf("%s: ReadAt = (%d, %v), want %d bytes", when, n, err, len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: byte %d = %#x, want %#x", when, i, got[i], want[i])
			}
		}
	}
	check(f, "after the grow")
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	g, err := v.Open("/t")
	if err != nil {
		t.Fatal(err)
	}
	check(g, "through a new handle")
}

func testErrors(t *testing.T, v fs.FileSystem) {
	if _, err := v.Open("/missing"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("Open missing = %v", err)
	}
	if _, err := v.Create("/no/such/dir/f"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("Create under missing dir = %v", err)
	}
	if err := v.Mkdir("/"); err == nil {
		t.Error("Mkdir(/) succeeded")
	}
	if _, err := v.Open("/"); !errors.Is(err, fs.ErrIsDir) {
		t.Errorf("Open(/) = %v", err)
	}
	f, _ := v.Create("/plain")
	_ = f.Close()
	if err := v.Mkdir("/plain/sub"); !errors.Is(err, fs.ErrNotDir) {
		t.Errorf("Mkdir under file = %v", err)
	}
	if _, err := v.ReadDir("/plain"); !errors.Is(err, fs.ErrNotDir) {
		t.Errorf("ReadDir(file) = %v", err)
	}
	_ = v.Mkdir("/d")
	if _, err := v.Create("/d"); !errors.Is(err, fs.ErrIsDir) {
		t.Errorf("Create over dir = %v", err)
	}
}

func testManyFiles(t *testing.T, v fs.FileSystem) {
	const n = 60
	for i := 0; i < n; i++ {
		f, err := v.Create(fmt.Sprintf("/m%02d", i))
		if err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
		if _, err := f.WriteAt([]byte{byte(i)}, 0); err != nil {
			t.Fatal(err)
		}
		_ = f.Close()
	}
	ents, err := v.ReadDir("/")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != n {
		t.Fatalf("entries = %d, want %d", len(ents), n)
	}
	for i := 0; i < n; i++ {
		g, err := v.Open(fmt.Sprintf("/m%02d", i))
		if err != nil {
			t.Fatal(err)
		}
		b := make([]byte, 1)
		if _, err := g.ReadAt(b, 0); err != nil || b[0] != byte(i) {
			t.Fatalf("file %d content %d (%v)", i, b[0], err)
		}
	}
}

func testRandomized(t *testing.T, v fs.FileSystem) {
	f, err := v.Create("/model")
	if err != nil {
		t.Fatal(err)
	}
	const span = 200_000
	model := make([]byte, span)
	//flashvet:ignore globalrand conformance corpus is pinned so every file system replays the identical history
	rng := simrand.New(77)
	var size int64
	for op := 0; op < 300; op++ {
		off := int64(rng.Intn(span - 5000))
		n := rng.Intn(5000) + 1
		val := byte(rng.Intn(256))
		chunk := bytes.Repeat([]byte{val}, n)
		if _, err := f.WriteAt(chunk, off); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		copy(model[off:off+int64(n)], chunk)
		if off+int64(n) > size {
			size = off + int64(n)
		}
		if op%37 == 0 {
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if f.Size() != size {
		t.Fatalf("Size = %d, want %d", f.Size(), size)
	}
	got := make([]byte, size)
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, model[:size]) {
		t.Fatal("diverged from model")
	}
}

// testHandle checks a file handle's edges: a negative offset fails, an
// empty write past EOF grows the file over a hole, a read at EOF is
// (0, nil), and a closed handle fails every operation with ErrUnmounted.
func testHandle(t *testing.T, v fs.FileSystem) {
	f, err := v.Create("/h")
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 10)
	if _, err := f.ReadAt(b, -1); err == nil {
		t.Error("ReadAt at offset -1 succeeded")
	}
	if _, err := f.WriteAt(b, -1); err == nil {
		t.Error("WriteAt at offset -1 succeeded")
	}
	if n, err := f.WriteAt(nil, 5000); err != nil || n != 0 || f.Size() != 5000 {
		t.Errorf("WriteAt(nil, 5000) = (%d, %v) and Size %d, want (0, nil) and 5000", n, err, f.Size())
	}
	gap := bytes.Repeat([]byte{1}, 5000)
	if n, err := f.ReadAt(gap, 0); err != nil || n != len(gap) || !bytes.Equal(gap, make([]byte, len(gap))) {
		t.Errorf("ReadAt over the gap = (%d, %v), want %d zeros", n, err, len(gap))
	}
	if n, err := f.ReadAt(b, 5000); n != 0 || err != nil {
		t.Errorf("ReadAt at EOF = (%d, %v), want (0, nil)", n, err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	_, errRead := f.ReadAt(b, 0)
	_, errWrite := f.WriteAt(b, 0)
	for i, err := range []error{errRead, errWrite, f.Sync(), f.Truncate(0)} {
		if !errors.Is(err, fs.ErrUnmounted) {
			t.Errorf("%s after Close: err = %v, want %v", []string{"ReadAt", "WriteAt", "Sync", "Truncate"}[i], err, fs.ErrUnmounted)
		}
	}
}
