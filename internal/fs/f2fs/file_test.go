package f2fs

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"flashwear/internal/blockdev"
	"flashwear/internal/fs"
)

// TestFileImagePinned pins the bytes f2fs leaves on a device, the device
// traffic and f2fs's counters, and every byte read back, after a script
// that reaches every path of a file handle (fileScript), before a crash
// and after the remount that rolls forward.
func TestFileImagePinned(t *testing.T) {
	const want = `before: image d13a96b27cdd94d8586d661ec48fbc99e18df599a2f42e52da3d8a10c8df54a9
  stats {NodeWrites:16 DataWrites:19 Checkpoints:1 CleanedSegments:0 RolledForward:0 FreeSegments:29}
  io reads 26 (106496 B) writes 45 (184320 B) discards 1 flushes 14
  reads 97a031822c1ffc44c710a2f2aa1f3977de11eb5d746c54edf6a4bedb7ce3be6b
after: image 966f0999fac7434302c711990a06f49871b4bad01dcd2c6ff07055cfbd5cdea6
  stats {NodeWrites:0 DataWrites:0 Checkpoints:1 CleanedSegments:0 RolledForward:2 FreeSegments:29}
  io reads 4014 (16441344 B) writes 48 (196608 B) discards 1 flushes 17
  reads 26d6729b229231a445e6088b8c8ee3af0d228e24e96c5b0f56be5824b76a25fe
`
	mem, err := blockdev.NewMem(16<<20, 512)
	if err != nil {
		t.Fatal(err)
	}
	dev := blockdev.NewCounting(mem)
	if err := Mkfs(dev); err != nil {
		t.Fatal(err)
	}
	v, err := Mount(dev, fs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reads := fileScript(t, v)
	got := filePin(t, "before", mem, v.Stats(), dev, reads)
	v.SimulateCrash()
	if v, err = Mount(dev, fs.Options{}); err != nil {
		t.Fatal(err)
	}
	if v.Stats().RolledForward == 0 {
		t.Fatal("script's crash rolled nothing forward")
	}
	got += filePin(t, "after", mem, v.Stats(), dev, readBack(t, v, "/f", "/g"))
	if got != want {
		t.Fatalf("got\n%s\nwant\n%s", got, want)
	}
}

// filePin describes one point of the file pin: the device image's sha256,
// the file system's counters, the device traffic, and the digest of what
// was read.
func filePin(t *testing.T, when string, mem *blockdev.MemDevice, stats any, dev *blockdev.Counting, reads string) string {
	sum := sha256.Sum256(deviceBytes(t, mem))
	return fmt.Sprintf("%s: image %x\n  stats %+v\n  io reads %d (%d B) writes %d (%d B) discards %d flushes %d\n  reads %s\n",
		when, sum, stats, dev.ReadOps, dev.BytesRead, dev.WriteOps, dev.BytesWritten, dev.DiscardOps, dev.FlushOps, reads)
}

// fileScript runs the file pin's script on v: writes inside a block,
// across blocks and sparsely far past EOF (into extfs's double-indirect
// range, file block >= NDirect+PtrsPerBlk = 1036, and into f2fs's
// indirect nodes, block >= 512), overwrites, reads over a hole, across
// EOF, at it and past it, Truncate down through each range and sparsely
// up, file and FS Sync, and a last write left unsynced. Every read is
// checked against a model of the file; fileScript returns the sha256 of
// everything read.
func fileScript(t *testing.T, v fs.FileSystem) string {
	t.Helper()
	const bs = 4096
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	f, err := v.Create("/f")
	must(err)
	// model holds the file's bytes up to its size.
	var model []byte
	var size int64
	sum := sha256.New()
	grow := func(end int64) {
		if end > int64(len(model)) {
			model = append(model, make([]byte, end-int64(len(model)))...)
		}
		size = max(size, end)
	}
	write := func(off int64, n int, tag byte) {
		t.Helper()
		p := make([]byte, n)
		for i := range p {
			x := off + int64(i)
			p[i] = byte(x) ^ byte(x>>8) ^ byte(x>>16) ^ tag
		}
		if got, err := f.WriteAt(p, off); err != nil || got != n {
			t.Fatalf("WriteAt(%d bytes, %d) = (%d, %v)", n, off, got, err)
		}
		grow(off + int64(n))
		copy(model[off:], p)
	}
	read := func(off int64, n int) {
		t.Helper()
		p := make([]byte, n)
		got, err := f.ReadAt(p, off)
		want := max(0, min(int64(n), size-off))
		if err != nil || int64(got) != want || (want > 0 && !bytes.Equal(p[:got], model[off:off+want])) {
			t.Fatalf("ReadAt(%d bytes, %d) = (%d, %v), want %d bytes of the model", n, off, got, err, want)
		}
		sum.Write(p[:got])
	}
	// A shrink drops every byte past the new size: a later growth reads
	// zeros there.
	truncate := func(to int64) {
		t.Helper()
		must(f.Truncate(to))
		model = model[:min(to, int64(len(model)))]
		size = min(size, to)
		grow(to)
	}
	write(10, 100, 1)            // inside block 0
	write(3000, 6000, 2)         // across blocks 0-2
	write(20*bs+100, 5000, 3)    // extfs's single-indirect range
	write(1040*bs-1000, 9000, 4) // sparse, across extfs's first double-indirect child
	write(2100*bs+7, 3000, 5)    // its second child; f2fs's second indirect node
	must(f.Sync())
	write(bs, bs, 6)          // overwrite one whole block
	write(1040*bs+50, 300, 7) // overwrite inside a block
	read(0, 3*bs)
	read(100*bs, 2*bs)  // a hole
	read(1035*bs, 8*bs) // single- to double-indirect, holes between
	read(size-3000, 10000)
	read(size, 10)
	read(size+bs, 10)
	g, err := v.Create("/g")
	must(err)
	_, err = g.WriteAt(bytes.Repeat([]byte{0x6B}, 5000), 0)
	must(err)
	must(v.Sync())
	truncate(1500*bs + 5) // inside the double-indirect range
	must(f.Sync())
	read(1035*bs, 8*bs)
	truncate(600 * bs)   // single-indirect for extfs, f2fs's first indirect node
	truncate(15*bs + 10) // the start of extfs's single-indirect range, f2fs's direct range
	must(f.Sync())
	truncate(5000) // direct
	write(9000, 100, 8)
	truncate(20000) // sparsely up
	read(0, 20000)
	must(f.Sync())
	write(30, 10, 9) // unsynced when the crash comes
	return hex.EncodeToString(sum.Sum(nil))
}

// readBack returns the sha256 of the named files' contents, each read
// whole, after its size.
func readBack(t *testing.T, v fs.FileSystem, paths ...string) string {
	t.Helper()
	sum := sha256.New()
	for _, path := range paths {
		f, err := v.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		p := make([]byte, f.Size())
		if n, err := f.ReadAt(p, 0); err != nil || n != len(p) {
			t.Fatalf("%s: ReadAt = (%d, %v), size %d", path, n, err, len(p))
		}
		fmt.Fprintf(sum, "%s %d\n", path, len(p))
		sum.Write(p)
	}
	return hex.EncodeToString(sum.Sum(nil))
}
