package f2fs

import (
	"fmt"

	"flashwear/internal/fs"
)

// Segment states.
const (
	segFree uint8 = iota
	segActive
	segUsed
	segQuarantine // zero valid blocks, reusable after the next checkpoint
)

// ownerIsNode in the SSA offset column marks a block that holds a node.
const ownerIsNode = ^uint32(0)

// cleanReserve is the number of free segments kept aside so cleaning and
// checkpointing always have room to run: cleaning must start while it can
// still afford its own copy work, or the log wedges (the classic LFS death
// spiral).
const cleanReserve = 4

// logState is an active log: the segment being appended to and the next
// block offset within it.
type logState struct {
	seg uint32
	off uint32
}

func (v *FS) segBase(seg uint32) uint32 { return v.sb.mainStart + seg*SegBlocks }

func (v *FS) segOf(addr uint32) uint32 { return (addr - v.sb.mainStart) / SegBlocks }

func (v *FS) mainIdx(addr uint32) uint32 { return addr - v.sb.mainStart }

func (v *FS) inMain(addr uint32) bool {
	return addr >= v.sb.mainStart && addr < v.sb.mainStart+v.sb.segCount*SegBlocks
}

// markValid records a freshly written block in the SIT/SSA.
func (v *FS) markValid(addr, owner, ofs uint32) {
	i := v.mainIdx(addr)
	if v.validMap[i/64]&(1<<(i%64)) == 0 {
		v.validMap[i/64] |= 1 << (i % 64)
		v.validCount[v.segOf(addr)]++
	}
	v.owner[i] = owner
	v.ofs[i] = ofs
}

// invalidateBlock drops a block from the valid set; a segment whose last
// valid block goes away is quarantined until the next checkpoint.
func (v *FS) invalidateBlock(addr uint32) {
	if !v.inMain(addr) {
		return
	}
	i := v.mainIdx(addr)
	if v.validMap[i/64]&(1<<(i%64)) == 0 {
		return
	}
	v.validMap[i/64] &^= 1 << (i % 64)
	seg := v.segOf(addr)
	v.validCount[seg]--
	if v.validCount[seg] == 0 && v.segState[seg] == segUsed {
		v.segState[seg] = segQuarantine
	}
}

// pickFreeSegment takes a free segment for a log.
func (v *FS) pickFreeSegment() (uint32, error) {
	for s := uint32(0); s < v.sb.segCount; s++ {
		if v.segState[s] == segFree {
			v.segState[s] = segActive
			v.freeSegs--
			return s, nil
		}
	}
	return 0, fs.ErrNoSpace
}

// allocLog returns the next block address of a log, advancing it; it rolls
// to a new segment (cleaning if space is short) when the current one fills.
//
// ls points into the FS, and cleaning triggered below may recursively write
// through the very same log; the re-checks keep a segment opened by that
// recursion from being leaked in the active state.
func (v *FS) allocLog(ls *logState) (uint32, error) {
	if ls.seg != ^uint32(0) && ls.off >= SegBlocks {
		// The filled segment leaves the active state.
		if v.validCount[ls.seg] == 0 {
			v.segState[ls.seg] = segQuarantine
		} else {
			v.segState[ls.seg] = segUsed
		}
		ls.seg = ^uint32(0)
	}
	if ls.seg == ^uint32(0) {
		if v.freeSegs <= cleanReserve && !v.cleaning && !v.checkpointing {
			if err := v.clean(); err != nil {
				return 0, err
			}
		}
		// Cleaning's relocation may have re-opened this log already.
		if ls.seg == ^uint32(0) || ls.off >= SegBlocks {
			seg, err := v.pickFreeSegment()
			if err != nil {
				return 0, err
			}
			ls.seg = seg
			ls.off = 0
		}
	}
	addr := v.segBase(ls.seg) + ls.off
	ls.off++
	return addr, nil
}

// quarantinedSegs counts segments waiting for a checkpoint to free them.
func (v *FS) quarantinedSegs() int {
	n := 0
	for s := uint32(0); s < v.sb.segCount; s++ {
		if v.segState[s] == segQuarantine {
			n++
		}
	}
	return n
}

// clean relocates the fullest-dead segments and checkpoints to convert the
// reclaimed space into free segments — F2FS foreground GC.
//
// Ordering matters: a checkpoint itself consumes log space (node flushes),
// so quarantined space is converted *first*, relocation then runs with that
// headroom, and a final checkpoint frees the victims.
func (v *FS) clean() error {
	v.cleaning = true
	defer func() { v.cleaning = false }()

	if v.quarantinedSegs() > 0 {
		if err := v.checkpointLocked(); err != nil {
			return err
		}
	}
	for rounds := 0; rounds < 16; rounds++ {
		if v.freeSegs+v.quarantinedSegs() > cleanReserve+2 {
			break
		}
		if v.freeSegs < 1 {
			break // keep room for the checkpoint's own writes
		}
		victim := v.pickVictim()
		if victim < 0 {
			break
		}
		if err := v.relocateSegment(uint32(victim)); err != nil {
			return err
		}
		v.statCleanedSegs++
	}
	return v.checkpointLocked()
}

// pickVictim selects the used segment with the fewest valid blocks.
func (v *FS) pickVictim() int {
	best := -1
	bestValid := uint16(SegBlocks)
	for s := uint32(0); s < v.sb.segCount; s++ {
		if v.segState[s] != segUsed {
			continue
		}
		if vc := v.validCount[s]; vc < bestValid {
			best, bestValid = int(s), vc
		}
	}
	if bestValid >= SegBlocks {
		return -1 // only fully-valid segments: nothing reclaimable
	}
	return best
}

// relocateSegment moves every valid block out of a segment.
func (v *FS) relocateSegment(seg uint32) error {
	base := v.segBase(seg)
	for off := uint32(0); off < SegBlocks; off++ {
		addr := base + off
		i := v.mainIdx(addr)
		if v.validMap[i/64]&(1<<(i%64)) == 0 {
			continue
		}
		owner, ofs := v.owner[i], v.ofs[i]
		if ofs == ownerIsNode {
			n, err := v.loadNode(owner)
			if err != nil {
				// NAT no longer references it; treat as dead.
				v.invalidateBlock(addr)
				continue
			}
			if v.natLookup(owner) != addr {
				v.invalidateBlock(addr) // stale copy
				continue
			}
			if err := v.writeNode(n, false); err != nil {
				return err
			}
			continue
		}
		// Data block: verify the owner still points here, then move it.
		n, err := v.loadNode(owner)
		if err != nil {
			v.invalidateBlock(addr)
			continue
		}
		cur, err := v.ptrOf(n, ofs)
		if err != nil || cur != addr {
			v.invalidateBlock(addr)
			continue
		}
		newAddr, err := v.allocLog(&v.dataLog)
		if err != nil {
			return err
		}
		if err := v.copyDataBlock(addr, newAddr, n); err != nil {
			return err
		}
		n.setPtr(ofs, newAddr)
		n.dirty = true
		v.invalidateBlock(addr)
		v.markValid(newAddr, owner, ofs)
	}
	return nil
}

// ptrOf reads a node's data pointer at slot ofs, which may come from the SSA
// and is checked against the node's kind.
func (v *FS) ptrOf(n *node, ofs uint32) (uint32, error) {
	if ofs >= n.nptrs() {
		return 0, fmt.Errorf("%w: node %d: pointer slot %d", ErrCorrupt, n.id, ofs)
	}
	return n.ptr(ofs), nil
}

// copyDataBlock copies a data block during cleaning, honouring data
// accounting for file content (directory content is always real).
func (v *FS) copyDataBlock(from, to uint32, owner *node) error {
	if v.opts.DataAccounting && owner.mode != modeDir {
		return v.dev.WriteAccounted(int64(to)*BlockSize, BlockSize)
	}
	b, err := readBlock(v.dev, from)
	if err != nil {
		return err
	}
	return writeBlock(v.dev, to, b)
}

// writeMetaBlock writes a block that must retain real content.
func (v *FS) writeMetaBlock(addr uint32, b []byte) error {
	return writeBlock(v.dev, addr, b)
}
