package f2fs

import (
	"fmt"

	"flashwear/internal/fs"
)

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

// --- the file content ---

// Gen is 0: f2fs mounts only into a new FS.
func (*names) Gen() uint32 { return 0 }

func (h *names) ReadBlock(n *node, idx int64, off int, p []byte) error {
	v := (*FS)(h)
	holder, slot, err := v.mapSlot(n, idx, false)
	if err != nil {
		return err
	}
	if holder == nil || holder.ptr(slot) == 0 {
		clear(p) // hole
		return nil
	}
	buf, err := readBlock(v.dev, holder.ptr(slot))
	if err != nil {
		return err
	}
	copy(p, buf[off:])
	return nil
}

// WriteBlock appends the block to the data log: copy-on-write, and a
// partial-block update first reads the old content.
func (h *names) WriteBlock(n *node, idx int64, off int, p []byte) error {
	v := (*FS)(h)
	holder, slot, err := v.mapSlot(n, idx, true)
	if err != nil {
		return err
	}
	oldAddr := holder.ptr(slot)
	newAddr, err := v.allocLog(&v.dataLog)
	if err != nil {
		return err
	}
	if v.opts.DataAccounting && n.mode != modeDir {
		if err := v.dev.WriteAccounted(int64(newAddr)*BlockSize, BlockSize); err != nil {
			return err
		}
	} else {
		buf := make([]byte, BlockSize)
		if len(p) != BlockSize && oldAddr != 0 {
			old, err := readBlock(v.dev, oldAddr)
			if err != nil {
				return err
			}
			copy(buf, old)
		}
		copy(buf[off:], p)
		if err := writeBlock(v.dev, newAddr, buf); err != nil {
			return err
		}
	}
	v.statDataWrites++
	if oldAddr != 0 {
		v.invalidateBlock(oldAddr)
	}
	holder.setPtr(slot, newAddr)
	holder.dirty = true
	v.markValid(newAddr, holder.id, slot)
	return nil
}

func (h *names) Wrote(n *node, end int64) {
	n.size = max(n.size, end)
	n.mtime = (*FS)(h).nowNanos()
	n.dirty = true
}

// Truncate writes the node fsync-marked.
func (h *names) Truncate(n *node, size int64) error {
	v := (*FS)(h)
	if err := v.truncateNode(n, size); err != nil {
		return err
	}
	return v.writeNode(n, true)
}

// Fsync writes the file's dirty node chain with the roll-forward (fsync)
// marker — data plus one node block per dirty node, the 2x write path of
// Figure 4.
func (h *names) Fsync(n *node, _ *int) error {
	v := (*FS)(h)
	// Ordering barrier: the data this sync covers must be durable before
	// the fsync-marked nodes that reference it, or roll-forward recovery
	// could resurrect pointers to unwritten blocks.
	if err := v.dev.Flush(); err != nil {
		return err
	}
	// Dirty indirect nodes first, in slot order, then the inode (which
	// references them).
	for w := int64(0); w < n.nIndir; w++ {
		id := n.indirectID(w)
		if id == 0 {
			continue
		}
		if ind, ok := v.nodes[id]; ok && ind != nil && ind.dirty {
			if err := v.writeNode(ind, true); err != nil {
				return err
			}
		}
	}
	if n.dirty {
		if err := v.writeNode(n, true); err != nil {
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

// truncateNode shrinks (or sparsely grows) a node to size, invalidating
// dropped blocks and releasing empty indirect nodes. A shrink into a
// block rewrites it with the rest zeroed, so a later growth reads zeros
// there; a hole stays a hole.
func (v *FS) truncateNode(in *node, size int64) error {
	if size >= in.size {
		in.size = size
		in.dirty = true
		return nil
	}
	if off := size % BlockSize; off != 0 {
		holder, slot, err := v.mapSlot(in, size/BlockSize, false)
		if err != nil {
			return err
		}
		if holder != nil && holder.ptr(slot) != 0 {
			if err := (*names)(v).WriteBlock(in, size/BlockSize, int(off), make([]byte, BlockSize-off)); err != nil {
				return err
			}
		}
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
