package extfs

import (
	"encoding/binary"
	"fmt"

	"flashwear/internal/fs"
)

// file implements fs.File on an extfs inode.
type file struct {
	fs     *FS
	in     *inode
	gen    uint32 // the mount of fs that opened the file
	closed bool
	syncs  int // fsyncs since the inode was last journaled (lazytime)
}

// alive fails a closed file, and one whose mount has ended: its inode is
// that mount's, even if fs has since been remounted in place.
func (f *file) alive() error {
	if f.closed || f.gen != f.fs.gen {
		return fs.ErrUnmounted
	}
	return f.fs.alive()
}

// Size implements fs.File.
func (f *file) Size() int64 { return f.in.size }

// Close implements fs.File.
func (f *file) Close() error {
	if f.closed {
		return nil
	}
	f.closed = true
	return nil
}

// --- block mapping ---

// bmap translates a file block index to a device block, optionally
// allocating missing blocks (and indirect blocks) on the way. It returns 0
// for a hole when alloc is false.
func (v *FS) bmap(in *inode, fileBlk int64, alloc bool) (uint32, error) {
	if fileBlk < 0 || fileBlk >= MaxFileBlocks {
		return 0, fs.ErrTooLarge
	}
	// Direct.
	if fileBlk < NDirect {
		blk := in.direct[fileBlk]
		if blk == 0 && alloc {
			nb, err := v.allocBlock()
			if err != nil {
				return 0, err
			}
			in.direct[fileBlk] = nb
			in.hardDirty = true
			blk = nb
		}
		return blk, nil
	}
	fileBlk -= NDirect
	// Single indirect.
	if fileBlk < PtrsPerBlk {
		return v.mapVia(&in.indirect, in, fileBlk, alloc)
	}
	fileBlk -= PtrsPerBlk
	// Double indirect.
	l1 := fileBlk / PtrsPerBlk
	l2 := fileBlk % PtrsPerBlk
	if in.dindirect == 0 {
		if !alloc {
			return 0, nil
		}
		nb, err := v.allocIndirect()
		if err != nil {
			return 0, err
		}
		in.dindirect = nb
		in.hardDirty = true
	}
	l1blk, err := v.ptrAt(in.dindirect, l1, alloc, in)
	if err != nil || l1blk == 0 {
		return 0, err
	}
	return v.ptrAtData(l1blk, l2, alloc, in)
}

// mapVia maps through a single indirect pointer field.
func (v *FS) mapVia(field *uint32, in *inode, idx int64, alloc bool) (uint32, error) {
	if *field == 0 {
		if !alloc {
			return 0, nil
		}
		nb, err := v.allocIndirect()
		if err != nil {
			return 0, err
		}
		*field = nb
		in.hardDirty = true
	}
	return v.ptrAtData(*field, idx, alloc, in)
}

// allocIndirect allocates a zeroed indirect block (staged as metadata).
func (v *FS) allocIndirect() (uint32, error) {
	nb, err := v.allocBlock()
	if err != nil {
		return 0, err
	}
	v.stageMeta(nb, make([]byte, BlockSize))
	return nb, nil
}

// ptrAt reads slot idx of an indirect block, allocating a child *indirect*
// block when alloc is set.
func (v *FS) ptrAt(blk uint32, idx int64, alloc bool, in *inode) (uint32, error) {
	b, err := v.readMeta(blk)
	if err != nil {
		return 0, err
	}
	p := binary.LittleEndian.Uint32(b[idx*PtrSize:])
	if p == 0 && alloc {
		nb, err := v.allocIndirect()
		if err != nil {
			return 0, err
		}
		nb2 := v.writable(blk, b)
		binary.LittleEndian.PutUint32(nb2[idx*PtrSize:], nb)
		v.stageMeta(blk, nb2)
		in.hardDirty = true
		p = nb
	}
	return p, nil
}

// ptrAtData reads slot idx of an indirect block, allocating a *data* block
// when alloc is set.
func (v *FS) ptrAtData(blk uint32, idx int64, alloc bool, in *inode) (uint32, error) {
	b, err := v.readMeta(blk)
	if err != nil {
		return 0, err
	}
	p := binary.LittleEndian.Uint32(b[idx*PtrSize:])
	if p == 0 && alloc {
		nb, err := v.allocBlock()
		if err != nil {
			return 0, err
		}
		nb2 := v.writable(blk, b)
		binary.LittleEndian.PutUint32(nb2[idx*PtrSize:], nb)
		v.stageMeta(blk, nb2)
		in.hardDirty = true
		p = nb
	}
	return p, nil
}

// --- data I/O ---

// writeData writes file content to a device block, honouring the
// data-accounting mount option. Ordered mode: data goes straight to its
// home location.
func (v *FS) writeData(blk uint32, data []byte, blkOff int) error {
	v.statDataBlocks++
	off := int64(blk)*BlockSize + int64(blkOff)
	if v.opts.DataAccounting {
		return v.dev.WriteAccounted(alignDown(off), alignUp(int64(len(data))+off-alignDown(off)))
	}
	if blkOff == 0 && len(data) == BlockSize {
		return v.dev.WriteAt(data, off)
	}
	// Sub-block write: read-modify-write the 4 KiB block.
	cur := make([]byte, BlockSize)
	if err := v.dev.ReadAt(cur, int64(blk)*BlockSize); err != nil {
		return err
	}
	copy(cur[blkOff:], data)
	return v.dev.WriteAt(cur, int64(blk)*BlockSize)
}

func alignDown(off int64) int64 { return off &^ (BlockSize - 1) }
func alignUp(n int64) int64     { return (n + BlockSize - 1) &^ (BlockSize - 1) }

// ReadAt implements fs.File.
func (f *file) ReadAt(p []byte, off int64) (int, error) {
	if err := f.alive(); err != nil {
		return 0, err
	}
	if off < 0 {
		return 0, fmt.Errorf("extfs: negative offset %d", off)
	}
	if off >= f.in.size {
		return 0, nil
	}
	if max := f.in.size - off; int64(len(p)) > max {
		p = p[:max]
	}
	n := 0
	for n < len(p) {
		blkIdx := (off + int64(n)) / BlockSize
		blkOff := int((off + int64(n)) % BlockSize)
		chunk := BlockSize - blkOff
		if chunk > len(p)-n {
			chunk = len(p) - n
		}
		blk, err := f.fs.bmap(f.in, blkIdx, false)
		if err != nil {
			return n, err
		}
		if blk == 0 {
			clear(p[n : n+chunk]) // hole
		} else {
			buf := make([]byte, BlockSize)
			if err := f.fs.dev.ReadAt(buf, int64(blk)*BlockSize); err != nil {
				return n, err
			}
			copy(p[n:n+chunk], buf[blkOff:])
		}
		n += chunk
	}
	return n, nil
}

// WriteAt implements fs.File.
func (f *file) WriteAt(p []byte, off int64) (int, error) {
	if err := f.alive(); err != nil {
		return 0, err
	}
	if off < 0 {
		return 0, fmt.Errorf("extfs: negative offset %d", off)
	}
	n := 0
	for n < len(p) {
		blkIdx := (off + int64(n)) / BlockSize
		blkOff := int((off + int64(n)) % BlockSize)
		chunk := BlockSize - blkOff
		if chunk > len(p)-n {
			chunk = len(p) - n
		}
		blk, err := f.fs.bmap(f.in, blkIdx, true)
		if err != nil {
			return n, err
		}
		if err := f.fs.writeData(blk, p[n:n+chunk], blkOff); err != nil {
			return n, err
		}
		n += chunk
	}
	if off+int64(n) > f.in.size {
		f.in.size = off + int64(n)
		f.in.hardDirty = true
	}
	f.in.mtime = f.fs.nowNanos()
	f.in.softDirty = true
	return n, nil
}

// Sync implements fs.File (fsync). Data is already in place (ordered,
// write-through); what remains is journaling the inode — which lazytime
// defers for timestamp-only changes.
func (f *file) Sync() error {
	if err := f.alive(); err != nil {
		return err
	}
	in := f.in
	f.syncs++
	needJournal := in.hardDirty || (in.softDirty && f.syncs >= lazyFlushInterval)
	if needJournal {
		if err := f.fs.flushInode(in); err != nil {
			return err
		}
		f.fs.stageBitmap()
		f.syncs = 0
	}
	return f.fs.commit()
}

// Truncate implements fs.File.
func (f *file) Truncate(size int64) error {
	if err := f.alive(); err != nil {
		return err
	}
	return f.fs.truncateInode(f.in, size)
}

// truncateInode shrinks (or sparsely grows) an inode to size.
func (v *FS) truncateInode(in *inode, size int64) error {
	if size < 0 {
		return fmt.Errorf("extfs: negative truncate %d", size)
	}
	if size >= in.size {
		if size != in.size {
			in.size = size
			in.hardDirty = true
		}
		return nil
	}
	firstDead := (size + BlockSize - 1) / BlockSize
	// Free direct blocks.
	for i := firstDead; i < NDirect; i++ {
		if in.direct[i] != 0 {
			v.freeBlock(in.direct[i])
			in.direct[i] = 0
		}
	}
	// Free single-indirect range.
	if in.indirect != 0 {
		start := firstDead - NDirect
		if start < 0 {
			start = 0
		}
		emptied, err := v.freeIndirectRange(in.indirect, start)
		if err != nil {
			return err
		}
		if emptied && firstDead <= NDirect {
			v.freeBlock(in.indirect)
			in.indirect = 0
		}
	}
	// Free double-indirect range.
	if in.dindirect != 0 {
		start := firstDead - NDirect - PtrsPerBlk
		if start < 0 {
			start = 0
		}
		b, err := v.readMeta(in.dindirect)
		if err != nil {
			return err
		}
		modified := v.writable(in.dindirect, b)
		anyLeft := false
		for l1 := int64(0); l1 < PtrsPerBlk; l1++ {
			p := binary.LittleEndian.Uint32(modified[l1*PtrSize:])
			if p == 0 {
				continue
			}
			lo := start - l1*PtrsPerBlk
			if lo < 0 {
				lo = 0
			}
			if lo >= PtrsPerBlk {
				anyLeft = true
				continue
			}
			emptied, err := v.freeIndirectRange(p, lo)
			if err != nil {
				return err
			}
			if emptied && lo == 0 {
				v.freeBlock(p)
				binary.LittleEndian.PutUint32(modified[l1*PtrSize:], 0)
			} else {
				anyLeft = true
			}
		}
		if !anyLeft && start <= 0 {
			v.freeBlock(in.dindirect)
			in.dindirect = 0
		} else {
			v.stageMeta(in.dindirect, modified)
		}
	}
	in.size = size
	in.hardDirty = true
	in.mtime = v.nowNanos()
	if err := v.flushInode(in); err != nil {
		return err
	}
	v.stageBitmap()
	return v.commit()
}

// freeIndirectRange frees data blocks at slots >= start of an indirect
// block, reporting whether the block ended up completely empty.
func (v *FS) freeIndirectRange(blk uint32, start int64) (empty bool, err error) {
	b, err := v.readMeta(blk)
	if err != nil {
		return false, err
	}
	modified := v.writable(blk, b)
	empty = true
	changed := false
	for i := int64(0); i < PtrsPerBlk; i++ {
		p := binary.LittleEndian.Uint32(modified[i*PtrSize:])
		if p == 0 {
			continue
		}
		if i >= start {
			v.freeBlock(p)
			binary.LittleEndian.PutUint32(modified[i*PtrSize:], 0)
			changed = true
		} else {
			empty = false
		}
	}
	if changed {
		v.stageMeta(blk, modified)
	}
	return empty, nil
}

var _ fs.File = (*file)(nil)
