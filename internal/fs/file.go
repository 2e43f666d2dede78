package fs

import "fmt"

// BlockSize is the block both file systems map a file's content in.
const BlockSize = 4096

// Content is a file system's per-block file I/O, as the one File handle
// uses it. N is its in-memory node. The handle splits every access at
// block boundaries and calls one hook per block, in file order; it
// passes the hooks no closures.
type Content[N comparable] interface {
	// Alive fails an unmounted file system.
	Alive() error
	// Gen is the file system's mount generation: a handle works only in
	// the mount that opened it.
	Gen() uint32
	Size(n N) int64
	// ReadBlock fills p, which lies inside file block idx from byte off,
	// with zeros over a hole.
	ReadBlock(n N, idx int64, off int, p []byte) error
	// WriteBlock writes p, which lies inside file block idx from byte
	// off, mapping the block if it is a hole.
	WriteBlock(n N, idx int64, off int, p []byte) error
	// Wrote records a write that ended at byte end, after each of its
	// blocks went out: the size grows to end if that is past it.
	Wrote(n N, end int64)
	// Truncate sets n's size, which is not negative.
	Truncate(n N, size int64) error
	// Fsync makes n durable. syncs is the handle's own count, kept from
	// one Fsync to the next.
	Fsync(n N, syncs *int) error
}

// OpenFile returns a handle on regular file n of h.
func OpenFile[N comparable](h Content[N], n N) File {
	return &file[N]{h: h, n: n, gen: h.Gen()}
}

// file is the one File implementation, over a file system's Content.
type file[N comparable] struct {
	h      Content[N]
	n      N
	gen    uint32 // the mount that opened the file
	closed bool
	syncs  int
}

// alive fails a closed file, and one whose mount has ended: its node is
// that mount's, even if the file system has since been remounted in
// place.
func (f *file[N]) alive() error {
	if f.closed || f.gen != f.h.Gen() {
		return ErrUnmounted
	}
	return f.h.Alive()
}

// Size implements File.
func (f *file[N]) Size() int64 { return f.h.Size(f.n) }

// Close implements File.
func (f *file[N]) Close() error {
	f.closed = true
	return nil
}

// ReadAt implements File.
func (f *file[N]) ReadAt(p []byte, off int64) (int, error) { return f.blocks(p, off, false) }

// WriteAt implements File.
func (f *file[N]) WriteAt(p []byte, off int64) (int, error) { return f.blocks(p, off, true) }

// blocks reads or writes p at off with one hook call per block, and
// returns how many bytes it moved. A read is cut at the size; a write
// whose every block went out is recorded with Wrote.
func (f *file[N]) blocks(p []byte, off int64, write bool) (int, error) {
	if err := f.alive(); err != nil {
		return 0, err
	}
	if off < 0 {
		return 0, fmt.Errorf("fs: negative offset %d", off)
	}
	if !write {
		p = p[:max(0, min(int64(len(p)), f.h.Size(f.n)-off))]
	}
	n := 0
	for n < len(p) {
		pos := off + int64(n)
		blkOff := int(pos % BlockSize)
		chunk := p[n:min(n+BlockSize-blkOff, len(p))]
		var err error
		if write {
			err = f.h.WriteBlock(f.n, pos/BlockSize, blkOff, chunk)
		} else {
			err = f.h.ReadBlock(f.n, pos/BlockSize, blkOff, chunk)
		}
		if err != nil {
			return n, err
		}
		n += len(chunk)
	}
	if write {
		f.h.Wrote(f.n, off+int64(n))
	}
	return n, nil
}

// Sync implements File.
func (f *file[N]) Sync() error {
	if err := f.alive(); err != nil {
		return err
	}
	return f.h.Fsync(f.n, &f.syncs)
}

// Truncate implements File.
func (f *file[N]) Truncate(size int64) error {
	if err := f.alive(); err != nil {
		return err
	}
	if size < 0 {
		return fmt.Errorf("fs: negative truncate %d", size)
	}
	return f.h.Truncate(f.n, size)
}
