// Package f2fs implements an F2FS-like log-structured file system on a
// blockdev.Device: all writes append to active data/node logs in segments,
// a Node Address Table (NAT) maps node IDs to their latest location,
// segment cleaning reclaims invalidated space, and fsync writes the file's
// node block with a roll-forward marker so recent syncs survive a crash
// without a full checkpoint — the design that makes F2FS write roughly two
// blocks per 4 KiB synchronous write, the behaviour Figure 4 measures.
package f2fs

import (
	"encoding/binary"
	"errors"
	"fmt"

	"flashwear/internal/blockdev"
	"flashwear/internal/fs"
)

// On-disk constants.
const (
	BlockSize = fs.BlockSize
	Magic     = 0x46324657 // "F2FW"

	// SegBlocks is the number of 4 KiB blocks per segment (512 KiB
	// segments, a small version of F2FS's 2 MiB).
	SegBlocks = 128

	// RootNode is the root directory's node ID. Node 0 is invalid.
	RootNode = 1

	// Inode pointer geometry (fits a 4 KiB block with the header).
	NDirect       = 512
	NIndirectIDs  = 120
	IndirectPtrs  = 900
	MaxFileBlocks = NDirect + NIndirectIDs*IndirectPtrs

	natEntriesPerBlock = BlockSize / 4
)

// Superblock states mirror extfs: clean vs mounted.
const (
	stateClean   = 1
	stateMounted = 2
)

var (
	// ErrNotF2FS means the device does not carry an f2fs superblock.
	ErrNotF2FS = errors.New("f2fs: bad magic (not an f2fs volume)")
	// ErrCorrupt covers structurally invalid on-disk state.
	ErrCorrupt = errors.New("f2fs: corrupt volume")
)

// superblock is block 0.
type superblock struct {
	magic       uint32
	totalBlocks uint32
	cpStart     uint32 // two alternating checkpoint blocks
	natStart    uint32
	natBlks     uint32
	mainStart   uint32
	segCount    uint32
	state       uint32
}

func (sb *superblock) encode() []byte {
	b := make([]byte, BlockSize)
	le := binary.LittleEndian
	le.PutUint32(b[0:], sb.magic)
	le.PutUint32(b[4:], sb.totalBlocks)
	le.PutUint32(b[8:], sb.cpStart)
	le.PutUint32(b[12:], sb.natStart)
	le.PutUint32(b[16:], sb.natBlks)
	le.PutUint32(b[20:], sb.mainStart)
	le.PutUint32(b[24:], sb.segCount)
	le.PutUint32(b[28:], sb.state)
	return b
}

func decodeSuperblock(b []byte) (*superblock, error) {
	le := binary.LittleEndian
	sb := &superblock{
		magic:       le.Uint32(b[0:]),
		totalBlocks: le.Uint32(b[4:]),
		cpStart:     le.Uint32(b[8:]),
		natStart:    le.Uint32(b[12:]),
		natBlks:     le.Uint32(b[16:]),
		mainStart:   le.Uint32(b[20:]),
		segCount:    le.Uint32(b[24:]),
		state:       le.Uint32(b[28:]),
	}
	if sb.magic != Magic {
		return nil, ErrNotF2FS
	}
	if sb.mainStart >= sb.totalBlocks || sb.segCount == 0 {
		return nil, fmt.Errorf("%w: bad layout", ErrCorrupt)
	}
	return sb, nil
}

// checkpoint is the persisted log state, written alternately to the two
// checkpoint blocks; the one with the highest version and valid magic wins.
type checkpoint struct {
	ver     uint64 // global version at checkpoint time
	dataSeg uint32 // active data log segment
	dataOff uint32
	nodeSeg uint32 // active node log segment
	nodeOff uint32
}

const cpMagic = 0x43504B54 // "CPKT"

// encode renders the checkpoint block into b, a BlockSize buffer, and
// returns it.
func (cp checkpoint) encode(b []byte) []byte {
	clear(b)
	le := binary.LittleEndian
	le.PutUint32(b[0:], cpMagic)
	le.PutUint64(b[8:], cp.ver)
	le.PutUint32(b[16:], cp.dataSeg)
	le.PutUint32(b[20:], cp.dataOff)
	le.PutUint32(b[24:], cp.nodeSeg)
	le.PutUint32(b[28:], cp.nodeOff)
	// Tail copy of ver acts as a torn-write detector.
	le.PutUint64(b[BlockSize-8:], cp.ver)
	return b
}

func decodeCheckpoint(b []byte) (checkpoint, bool) {
	le := binary.LittleEndian
	if le.Uint32(b[0:]) != cpMagic {
		return checkpoint{}, false
	}
	cp := checkpoint{
		ver:     le.Uint64(b[8:]),
		dataSeg: le.Uint32(b[16:]),
		dataOff: le.Uint32(b[20:]),
		nodeSeg: le.Uint32(b[24:]),
		nodeOff: le.Uint32(b[28:]),
	}
	if le.Uint64(b[BlockSize-8:]) != cp.ver {
		return checkpoint{}, false // torn checkpoint write
	}
	return cp, true
}

// computeLayout derives the layout for a device.
func computeLayout(deviceBytes int64) (*superblock, error) {
	total := uint32(deviceBytes / BlockSize)
	if total < 8*SegBlocks {
		return nil, fmt.Errorf("f2fs: device too small: %d blocks", total)
	}
	sb := &superblock{magic: Magic, totalBlocks: total, cpStart: 1}
	// One NAT entry per 4 main-area blocks, at least one NAT block.
	natEntries := total / 4
	sb.natBlks = (natEntries + natEntriesPerBlock - 1) / natEntriesPerBlock
	sb.natStart = sb.cpStart + 2
	mainStart := sb.natStart + sb.natBlks
	// Align the main area to a segment boundary for clean addressing.
	if rem := mainStart % SegBlocks; rem != 0 {
		mainStart += SegBlocks - rem
	}
	sb.mainStart = mainStart
	if mainStart >= total {
		return nil, fmt.Errorf("f2fs: no room for main area")
	}
	sb.segCount = (total - mainStart) / SegBlocks
	if sb.segCount < 6 {
		return nil, fmt.Errorf("f2fs: too few segments: %d", sb.segCount)
	}
	return sb, nil
}

func readBlock(d blockdev.Device, blk uint32) ([]byte, error) {
	b := make([]byte, BlockSize)
	if err := d.ReadAt(b, int64(blk)*BlockSize); err != nil {
		return nil, err
	}
	return b, nil
}

func writeBlock(d blockdev.Device, blk uint32, b []byte) error {
	return d.WriteAt(b, int64(blk)*BlockSize)
}
