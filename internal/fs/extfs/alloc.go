package extfs

import (
	"encoding/binary"
	"fmt"
)

// The block allocator keeps the whole bitmap in memory as uint64 words and
// stages modified bitmap blocks through the journal. Bits cover the entire
// volume; metadata regions are pre-marked allocated by mkfs.

// loadBitmap reads the bitmap region into memory at mount.
func (v *FS) loadBitmap() error {
	n := int(v.sb.bitmapBlks) * BlockSize / 8
	if cap(v.bitmap) < n {
		v.bitmap = make([]uint64, n)
	}
	words := v.bitmap[:n]
	for i := uint32(0); i < v.sb.bitmapBlks; i++ {
		b, err := readBlockInto(v.dev, v.sb.bitmapStart+i, v.scratch)
		if err != nil {
			return err
		}
		base := int(i) * BlockSize / 8
		for w := 0; w < BlockSize/8; w++ {
			words[base+w] = binary.LittleEndian.Uint64(b[w*8:])
		}
	}
	v.bitmap = words
	return nil
}

func (v *FS) bitSet(blk uint32) bool {
	return v.bitmap[blk/64]&(1<<(blk%64)) != 0
}

func (v *FS) setBit(blk uint32, val bool) {
	if val {
		v.bitmap[blk/64] |= 1 << (blk % 64)
	} else {
		v.bitmap[blk/64] &^= 1 << (blk % 64)
	}
	v.dirtyBitmapBlocks[blk/(BlockSize*8)] = true
}

// allocBlock finds, marks, and returns a free data block. It uses a rotor so
// consecutive allocations are roughly sequential.
func (v *FS) allocBlock() (uint32, error) {
	total := v.sb.totalBlocks
	if v.allocRotor < v.sb.dataStart {
		v.allocRotor = v.sb.dataStart
	}
	for pass := 0; pass < 2; pass++ {
		for scanned := uint32(0); scanned < total; scanned++ {
			blk := v.allocRotor
			v.allocRotor++
			if v.allocRotor >= total {
				v.allocRotor = v.sb.dataStart
			}
			if blk < v.sb.dataStart {
				continue
			}
			if !v.bitSet(blk) {
				v.setBit(blk, true)
				v.freeBlocks--
				return blk, nil
			}
		}
		// All free space may be sitting in quarantine; a checkpoint
		// returns it to the allocator.
		if len(v.quarantine) == 0 {
			break
		}
		if err := v.checkpoint(); err != nil {
			return 0, err
		}
	}
	return 0, fmt.Errorf("extfs: %w", errNoSpace)
}

// freeBlock releases a data or indirect block. The block is quarantined —
// it rejoins the allocator only at the next checkpoint — so that a stale
// copy of it sitting in the journal can never be replayed over a
// reallocated block (the role jbd2's revoke records play).
func (v *FS) freeBlock(blk uint32) {
	if blk == 0 || blk < v.sb.dataStart || blk >= v.sb.totalBlocks {
		return
	}
	if !v.bitSet(blk) || v.quarantine[blk] {
		return
	}
	v.meta[blk] = nil
	delete(v.txn, blk)
	delete(v.pending, blk)
	v.quarantine[blk] = true
}

// drainQuarantine returns quarantined blocks to the allocator and persists
// the bitmap in place. Called from checkpoint, after the journal has been
// written home: at that point the freeing transactions are fully on disk,
// so clearing the bits is crash-safe (a crash can only leak, never corrupt).
func (v *FS) drainQuarantine() error {
	if len(v.quarantine) == 0 {
		return nil
	}
	v.keys = sortedKeys(v.keys, v.quarantine)
	for _, blk := range v.keys {
		v.setBit(blk, false)
		v.freeBlocks++
		// Best-effort TRIM; ignore errors (the device may be dying).
		_ = v.dev.Discard(int64(blk)*BlockSize, BlockSize)
	}
	clear(v.quarantine)
	v.keys = sortedKeys(v.keys, v.dirtyBitmapBlocks)
	for _, idx := range v.keys {
		b := make([]byte, BlockSize)
		base := int(idx) * BlockSize / 8
		for w := 0; w < BlockSize/8; w++ {
			binary.LittleEndian.PutUint64(b[w*8:], v.bitmap[base+w])
		}
		v.meta[v.sb.bitmapStart+idx] = b
		if err := writeBlock(v.dev, v.sb.bitmapStart+idx, b); err != nil {
			return err
		}
	}
	clear(v.dirtyBitmapBlocks)
	return nil
}

// countFree recomputes the free-block count (mount time).
func (v *FS) countFree() {
	var free int64
	for blk := v.sb.dataStart; blk < v.sb.totalBlocks; blk++ {
		if !v.bitSet(blk) {
			free++
		}
	}
	v.freeBlocks = free
}

// stageBitmap stages all dirty bitmap blocks into the running journal
// transaction.
func (v *FS) stageBitmap() {
	for idx := range v.dirtyBitmapBlocks {
		b := make([]byte, BlockSize)
		base := int(idx) * BlockSize / 8
		for w := 0; w < BlockSize/8; w++ {
			binary.LittleEndian.PutUint64(b[w*8:], v.bitmap[base+w])
		}
		v.stageMeta(v.sb.bitmapStart+idx, b)
	}
	clear(v.dirtyBitmapBlocks)
}
