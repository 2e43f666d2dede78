package f2fs

import (
	"encoding/binary"
	"fmt"

	"flashwear/internal/fs"
)

// file implements fs.File on an f2fs inode.
type file struct {
	fs     *FS
	n      *node
	closed bool
}

func (f *file) alive() error {
	if f.closed {
		return fs.ErrUnmounted
	}
	return f.fs.alive()
}

// Size implements fs.File.
func (f *file) Size() int64 { return f.n.size }

// Close implements fs.File.
func (f *file) Close() error {
	f.closed = true
	return nil
}

// mapSlot resolves a file block index to the node holding its pointer and
// the slot within that node, allocating indirect nodes as needed.
func (v *FS) mapSlot(in *node, fileBlk int64, alloc bool) (holder *node, slot uint32, err error) {
	if fileBlk < 0 || fileBlk >= MaxFileBlocks {
		return nil, 0, fs.ErrTooLarge
	}
	if fileBlk < NDirect {
		return in, uint32(fileBlk), nil
	}
	rest := fileBlk - NDirect
	which := rest / IndirectPtrs
	slot = uint32(rest % IndirectPtrs)
	indirID := in.indirectID(which)
	if indirID == 0 {
		if !alloc {
			return nil, 0, nil
		}
		id, err := v.allocNodeID()
		if err != nil {
			return nil, 0, err
		}
		ind := newIndirect(id)
		v.nodes[id] = ind
		in.setIndirectID(which, id)
		in.dirty = true
		return ind, slot, nil
	}
	ind, err := v.loadNode(indirID)
	if err != nil {
		return nil, 0, err
	}
	if !ind.isIndirect() {
		return nil, 0, fmt.Errorf("%w: node %d is not indirect", ErrCorrupt, indirID)
	}
	return ind, slot, nil
}

// readNodeData reads file content through a node's mapping.
func (v *FS) readNodeData(in *node, p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("f2fs: negative offset %d", off)
	}
	if off >= in.size {
		return 0, nil
	}
	if max := in.size - off; int64(len(p)) > max {
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
		holder, slot, err := v.mapSlot(in, blkIdx, false)
		if err != nil {
			return n, err
		}
		var addr uint32
		if holder != nil {
			if addr, err = v.ptrOf(holder, slot); err != nil {
				return n, err
			}
		}
		if addr == 0 {
			clear(p[n : n+chunk]) // hole
		} else {
			buf, err := readBlock(v.dev, addr)
			if err != nil {
				return n, err
			}
			copy(p[n:n+chunk], buf[blkOff:])
		}
		n += chunk
	}
	return n, nil
}

// writeNodeData writes file content out-of-place through a node's mapping.
// Every touched block is appended to the data log (copy-on-write, including
// partial-block updates, which first read the old content).
func (v *FS) writeNodeData(in *node, p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("f2fs: negative offset %d", off)
	}
	n := 0
	for n < len(p) {
		blkIdx := (off + int64(n)) / BlockSize
		blkOff := int((off + int64(n)) % BlockSize)
		chunk := BlockSize - blkOff
		if chunk > len(p)-n {
			chunk = len(p) - n
		}
		holder, slot, err := v.mapSlot(in, blkIdx, true)
		if err != nil {
			return n, err
		}
		oldAddr, err := v.ptrOf(holder, slot)
		if err != nil {
			return n, err
		}
		newAddr, err := v.allocLog(&v.dataLog)
		if err != nil {
			return n, err
		}
		if v.opts.DataAccounting && in.mode != modeDir {
			if err := v.dev.WriteAccounted(int64(newAddr)*BlockSize, BlockSize); err != nil {
				return n, err
			}
		} else {
			buf := make([]byte, BlockSize)
			if (blkOff != 0 || chunk != BlockSize) && oldAddr != 0 {
				old, err := readBlock(v.dev, oldAddr)
				if err != nil {
					return n, err
				}
				copy(buf, old)
			}
			copy(buf[blkOff:], p[n:n+chunk])
			if err := writeBlock(v.dev, newAddr, buf); err != nil {
				return n, err
			}
		}
		v.statDataWrites++
		if oldAddr != 0 {
			v.invalidateBlock(oldAddr)
		}
		holder.setPtr(slot, newAddr)
		holder.dirty = true
		v.markValid(newAddr, holder.id, slot)
		n += chunk
	}
	if off+int64(n) > in.size {
		in.size = off + int64(n)
	}
	in.mtime = v.nowNanos()
	in.dirty = true
	return n, nil
}

// ReadAt implements fs.File.
func (f *file) ReadAt(p []byte, off int64) (int, error) {
	if err := f.alive(); err != nil {
		return 0, err
	}
	return f.fs.readNodeData(f.n, p, off)
}

// WriteAt implements fs.File.
func (f *file) WriteAt(p []byte, off int64) (int, error) {
	if err := f.alive(); err != nil {
		return 0, err
	}
	n, err := f.fs.writeNodeData(f.n, p, off)
	if err != nil {
		return n, err
	}
	if f.fs.opts.SyncEveryWrite {
		if err := f.Sync(); err != nil {
			return n, err
		}
	}
	return n, nil
}

// Sync implements fs.File: write the file's dirty node chain with the
// roll-forward (fsync) marker — data plus one node block per dirty node,
// the 2x write path of Figure 4.
func (f *file) Sync() error {
	if err := f.alive(); err != nil {
		return err
	}
	v := f.fs
	// Ordering barrier: the data this sync covers must be durable before
	// the fsync-marked nodes that reference it, or roll-forward recovery
	// could resurrect pointers to unwritten blocks.
	if err := v.dev.Flush(); err != nil {
		return err
	}
	// Dirty indirect nodes first, in slot order, then the inode (which
	// references them).
	for ids := f.n.blk[indirBase : indirBase+4*NIndirectIDs]; len(ids) >= 4; ids = ids[4:] {
		id := binary.LittleEndian.Uint32(ids)
		if id == 0 {
			continue
		}
		if ind, ok := v.nodes[id]; ok && ind != nil && ind.dirty {
			if err := v.writeNode(ind, true); err != nil {
				return err
			}
		}
	}
	if f.n.dirty {
		if err := v.writeNode(f.n, true); err != nil {
			return err
		}
	}
	if err := v.dev.Flush(); err != nil {
		return err
	}
	v.fsyncsSinceCP++
	if v.fsyncsSinceCP >= checkpointInterval {
		return v.checkpointLocked()
	}
	return nil
}

// Truncate implements fs.File.
func (f *file) Truncate(size int64) error {
	if err := f.alive(); err != nil {
		return err
	}
	if err := f.fs.truncateNode(f.n, size); err != nil {
		return err
	}
	return f.fs.writeNode(f.n, true)
}

// truncateNode shrinks (or sparsely grows) a node to size, invalidating
// dropped blocks and releasing empty indirect nodes.
func (v *FS) truncateNode(in *node, size int64) error {
	if size < 0 {
		return fmt.Errorf("f2fs: negative truncate %d", size)
	}
	if size >= in.size {
		in.size = size
		in.dirty = true
		return nil
	}
	firstDead := (size + BlockSize - 1) / BlockSize
	for s := uint32(firstDead); s < NDirect; s++ {
		if p := in.ptr(s); p != 0 {
			v.invalidateBlock(p)
			in.setPtr(s, 0)
		}
	}
	for w := int64(0); w < NIndirectIDs; w++ {
		id := in.indirectID(w)
		if id == 0 {
			continue
		}
		lo := firstDead - NDirect - w*IndirectPtrs
		if lo >= IndirectPtrs {
			continue
		}
		if lo < 0 {
			lo = 0
		}
		ind, err := v.loadNode(id)
		if err != nil {
			return err
		}
		empty := true
		for s := uint32(0); s < IndirectPtrs; s++ {
			p := ind.ptr(s)
			if p == 0 {
				continue
			}
			if int64(s) >= lo {
				v.invalidateBlock(p)
				ind.setPtr(s, 0)
				ind.dirty = true
			} else {
				empty = false
			}
		}
		if empty && lo == 0 {
			if addr := v.natLookup(id); addr != 0 {
				v.invalidateBlock(addr)
			}
			v.natSet(id, 0)
			delete(v.nodes, id)
			in.setIndirectID(w, 0)
		}
	}
	in.size = size
	in.mtime = v.nowNanos()
	in.dirty = true
	return nil
}

var _ fs.File = (*file)(nil)
