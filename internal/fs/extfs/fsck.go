package extfs

import (
	"encoding/binary"
	"fmt"

	"flashwear/internal/blockdev"
	"flashwear/internal/fs"
)

// FsckReport is the outcome of an offline consistency check.
type FsckReport struct {
	// Corruptions are invariant violations: referenced-but-free blocks,
	// doubly-referenced blocks, entries pointing at free inodes. A
	// healthy (or correctly recovered) volume has none.
	Corruptions []string
	// LeakedBlocks counts allocated-but-unreferenced data blocks. Leaks
	// are legal after a crash (the journal quarantine errs this way) —
	// they waste space, never data.
	LeakedBlocks int
	// OrphanInodes counts allocated inodes unreachable from the root.
	OrphanInodes int
	// Files and Dirs count reachable objects.
	Files int
	Dirs  int
}

// Clean reports whether the volume is free of corruption (leaks allowed).
func (r FsckReport) Clean() bool { return len(r.Corruptions) == 0 }

// Fsck runs a read-only, mount-free consistency check over an extfs
// volume: every reachable inode's block tree is walked, references are
// checked against the bitmap, and double-allocations are detected. Run it
// after journal replay to prove recovery produced a consistent volume.
//
// Limitation: the reachability walk reads only a directory's direct blocks
// (192 entries); larger directories report their tail entries as orphans
// rather than corruption.
func Fsck(dev blockdev.Device) (FsckReport, error) {
	var rep FsckReport
	sbBlock, err := readBlock(dev, 0)
	if err != nil {
		return rep, err
	}
	sb, err := decodeSuperblock(sbBlock)
	if err != nil {
		return rep, err
	}

	// Load the bitmap.
	bits := make([]uint64, int(sb.bitmapBlks)*BlockSize/8)
	for i := uint32(0); i < sb.bitmapBlks; i++ {
		b, err := readBlock(dev, sb.bitmapStart+i)
		if err != nil {
			return rep, err
		}
		base := int(i) * BlockSize / 8
		for w := 0; w < BlockSize/8; w++ {
			bits[base+w] = binary.LittleEndian.Uint64(b[w*8:])
		}
	}
	allocated := func(blk uint32) bool { return bits[blk/64]&(1<<(blk%64)) != 0 }

	// Load every inode.
	inodes := make(map[uint32]*inode)
	for tb := uint32(0); tb < sb.itableBlks; tb++ {
		b, err := readBlock(dev, sb.itableStart+tb)
		if err != nil {
			return rep, err
		}
		for slot := 0; slot < InodesPerBlock; slot++ {
			ino := tb*InodesPerBlock + uint32(slot)
			in := decodeInode(ino, b[slot*InodeSize:(slot+1)*InodeSize])
			if in.mode != modeFree && ino != 0 {
				inodes[ino] = in
			}
		}
	}

	refs := map[uint32]uint32{} // data block -> referencing inode
	addRef := func(blk uint32, ino uint32) {
		if blk == 0 {
			return
		}
		if blk < sb.dataStart || blk >= sb.totalBlocks {
			rep.Corruptions = append(rep.Corruptions,
				fmt.Sprintf("inode %d references out-of-range block %d", ino, blk))
			return
		}
		if !allocated(blk) {
			rep.Corruptions = append(rep.Corruptions,
				fmt.Sprintf("inode %d references free block %d", ino, blk))
		}
		if prev, dup := refs[blk]; dup {
			rep.Corruptions = append(rep.Corruptions,
				fmt.Sprintf("block %d referenced by inodes %d and %d", blk, prev, ino))
			return
		}
		refs[blk] = ino
	}

	readPtrs := func(blk uint32) ([]uint32, error) {
		b, err := readBlock(dev, blk)
		if err != nil {
			return nil, err
		}
		out := make([]uint32, PtrsPerBlk)
		for i := range out {
			out[i] = binary.LittleEndian.Uint32(b[i*PtrSize:])
		}
		return out, nil
	}

	// Walk each inode's block tree.
	for ino, in := range inodes {
		for _, blk := range in.direct {
			addRef(blk, ino)
		}
		if in.indirect != 0 {
			addRef(in.indirect, ino)
			ptrs, err := readPtrs(in.indirect)
			if err != nil {
				return rep, err
			}
			for _, p := range ptrs {
				addRef(p, ino)
			}
		}
		if in.dindirect != 0 {
			addRef(in.dindirect, ino)
			l1, err := readPtrs(in.dindirect)
			if err != nil {
				return rep, err
			}
			for _, p1 := range l1 {
				if p1 == 0 {
					continue
				}
				addRef(p1, ino)
				l2, err := readPtrs(p1)
				if err != nil {
					return rep, err
				}
				for _, p2 := range l2 {
					addRef(p2, ino)
				}
			}
		}
	}

	// Reachability from the root, and directory-entry validity.
	reachable := map[uint32]bool{}
	var walk func(ino uint32) error
	walk = func(ino uint32) error {
		if reachable[ino] {
			return nil
		}
		reachable[ino] = true
		in, ok := inodes[ino]
		if !ok {
			rep.Corruptions = append(rep.Corruptions,
				fmt.Sprintf("directory entry points at free inode %d", ino))
			return nil
		}
		if in.mode != modeDir {
			rep.Files++
			return nil
		}
		rep.Dirs++
		// Read the directory content directly through its block tree.
		nblk := (in.size + BlockSize - 1) / BlockSize
		for i := int64(0); i < nblk && i < NDirect; i++ {
			blk := in.direct[i]
			if blk == 0 {
				continue
			}
			b, err := readBlock(dev, blk)
			if err != nil {
				return err
			}
			limit := in.size - i*BlockSize
			for off := 0; off+fs.DirentSize <= BlockSize && int64(off) < limit; off += fs.DirentSize {
				child := binary.LittleEndian.Uint32(b[off:])
				if child == 0 {
					continue
				}
				if err := walk(child); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := walk(RootIno); err != nil {
		return rep, err
	}
	for ino := range inodes {
		if !reachable[ino] {
			rep.OrphanInodes++
		}
	}

	// Leaked blocks: allocated in the data area but never referenced.
	for blk := sb.dataStart; blk < sb.totalBlocks; blk++ {
		if allocated(blk) {
			if _, ok := refs[blk]; !ok {
				rep.LeakedBlocks++
			}
		}
	}
	return rep, nil
}
