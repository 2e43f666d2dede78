package extfs

import (
	"encoding/binary"

	"flashwear/internal/fs"
)

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
		return v.mapVia(&in.indirect, in, fileBlk, alloc, false)
	}
	fileBlk -= PtrsPerBlk
	// Double indirect: the child indirect block, then its slot.
	child, err := v.mapVia(&in.dindirect, in, fileBlk/PtrsPerBlk, alloc, true)
	if err != nil || child == 0 {
		return 0, err
	}
	return v.mapVia(&child, in, fileBlk%PtrsPerBlk, alloc, false)
}

// mapVia reads slot idx of the indirect block *field points at. With alloc
// set it fills what is missing on the way: the indirect block itself (in
// *field), then the slot's block, an indirect block if indirect is set and
// a data block if not.
func (v *FS) mapVia(field *uint32, in *inode, idx int64, alloc, indirect bool) (uint32, error) {
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
	b, err := v.readMeta(*field)
	if err != nil {
		return 0, err
	}
	p := binary.LittleEndian.Uint32(b[idx*PtrSize:])
	if p == 0 && alloc {
		if indirect {
			p, err = v.allocIndirect()
		} else {
			p, err = v.allocBlock()
		}
		if err != nil {
			return 0, err
		}
		nb := v.writable(*field, b)
		binary.LittleEndian.PutUint32(nb[idx*PtrSize:], p)
		v.stageMeta(*field, nb)
		in.hardDirty = true
	}
	return p, nil
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

// --- the file content ---

// Gen is the mount generation Remount bumps.
func (h *names) Gen() uint32 { return h.gen }

// ReadBlock reads the whole device block and copies out p's part.
func (h *names) ReadBlock(in *inode, idx int64, off int, p []byte) error {
	v := (*FS)(h)
	blk, err := v.bmap(in, idx, false)
	if err != nil {
		return err
	}
	if blk == 0 {
		clear(p) // hole
		return nil
	}
	buf := make([]byte, BlockSize)
	if err := v.dev.ReadAt(buf, int64(blk)*BlockSize); err != nil {
		return err
	}
	copy(p, buf[off:])
	return nil
}

func (h *names) WriteBlock(in *inode, idx int64, off int, p []byte) error {
	v := (*FS)(h)
	blk, err := v.bmap(in, idx, true)
	if err != nil {
		return err
	}
	return v.writeData(blk, p, off)
}

func (h *names) Wrote(in *inode, end int64) {
	if end > in.size {
		in.size = end
		in.hardDirty = true
	}
	in.mtime = (*FS)(h).nowNanos()
	in.softDirty = true
}

func (h *names) Truncate(in *inode, size int64) error { return (*FS)(h).truncateInode(in, size) }

// Fsync journals the inode, unless only its timestamps changed and fewer
// than lazyFlushInterval of the handle's fsyncs have passed since it was
// last journaled (lazytime), then commits. Data is already in place
// (ordered, write-through).
func (h *names) Fsync(in *inode, syncs *int) error {
	v := (*FS)(h)
	*syncs++
	if in.hardDirty || (in.softDirty && *syncs >= lazyFlushInterval) {
		if err := v.flushInode(in); err != nil {
			return err
		}
		v.stageBitmap()
		*syncs = 0
	}
	return v.commit()
}

// truncateInode shrinks (or sparsely grows) an inode to size. A shrink
// into a block zeroes the rest of it, as ext4's block_truncate_page does,
// so a later growth reads zeros there; a hole stays a hole.
func (v *FS) truncateInode(in *inode, size int64) error {
	if size >= in.size {
		if size != in.size {
			in.size = size
			in.hardDirty = true
		}
		return nil
	}
	if off := size % BlockSize; off != 0 {
		blk, err := v.bmap(in, size/BlockSize, false)
		if err != nil {
			return err
		}
		if blk != 0 {
			if err := v.writeData(blk, make([]byte, BlockSize-off), int(off)); err != nil {
				return err
			}
		}
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
