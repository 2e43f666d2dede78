package f2fs

import (
	"encoding/binary"
	"fmt"
	"slices"

	"flashwear/internal/fs"
)

// Node flags.
const (
	nodeFsync    = 1 << 0 // written by fsync: participates in roll-forward
	nodeIndirect = 1 << 1
	nodeDead     = 1 << 2 // written on deletion so roll-forward drops it
)

// Node modes (inodes only).
const (
	modeFile = 1
	modeDir  = 2
)

const nodeMagic = 0x46324E44 // "F2ND"

// Node block layout: a 40-byte header (magic, id, version, flags, mode,
// links, size, mtime), then from ptrBase a table of little-endian uint32s —
// an inode's NDirect data pointers followed by its NIndirectIDs node IDs, or
// an indirect node's IndirectPtrs data pointers. Data-pointer slot s sits at
// the same offset in both kinds.
const (
	hdrLen    = 40
	ptrBase   = 64
	indirBase = ptrBase + 4*NDirect
)

// node is the in-memory form of a node block: either an inode (file/dir
// metadata plus direct pointers and indirect-node IDs) or an indirect node
// (a run of data-block pointers).
type node struct {
	id    uint32
	flags uint8
	mode  uint16
	links uint16
	size  int64
	mtime int64

	// blk is the node's block image and the only copy of its pointer
	// table: a sync rewrite changes one slot of ~1000, so the table is kept
	// encoded and updated in place. The header fields above are patched in
	// by encode.
	blk []byte
	// used bounds blk's non-zero bytes: blk[used:] is zero. It is at least
	// hdrLen, which covers whatever encode patches in, and setPtr and
	// setIndirectID raise it; writeNode tightens it and tells the device.
	used int
	// nIndir is one past an inode's highest non-zero indirect-node slot
	// (0 when it has none): the slots a walk over them must visit. A file
	// that never outgrows its direct pointers has none.
	nIndir int64

	dirty bool
}

func newInode(id uint32, mode uint16) *node {
	return &node{id: id, mode: mode, links: 1, blk: make([]byte, BlockSize), used: hdrLen, dirty: true}
}

func newIndirect(id uint32) *node {
	return &node{id: id, flags: nodeIndirect, blk: make([]byte, BlockSize), used: hdrLen, dirty: true}
}

func (n *node) isIndirect() bool { return n.flags&nodeIndirect != 0 }

// nptrs is the number of data-pointer slots the node holds.
func (n *node) nptrs() uint32 {
	if n.isIndirect() {
		return IndirectPtrs
	}
	return NDirect
}

func (n *node) ptr(slot uint32) uint32 {
	return binary.LittleEndian.Uint32(n.blk[ptrBase+4*slot:])
}

func (n *node) setPtr(slot, addr uint32) {
	n.put(ptrBase+4*int(slot), addr)
}

// put stores v at byte off of the image, raising used past it when v is
// non-zero.
func (n *node) put(off int, v uint32) {
	binary.LittleEndian.PutUint32(n.blk[off:], v)
	if v != 0 {
		n.used = max(n.used, off+4)
	}
}

// indirectID returns the ID of an inode's which-th indirect node, 0 if none.
func (n *node) indirectID(which int64) uint32 {
	return binary.LittleEndian.Uint32(n.blk[indirBase+4*which:])
}

func (n *node) setIndirectID(which int64, id uint32) {
	n.put(indirBase+4*int(which), id)
	switch {
	case id != 0 && which >= n.nIndir:
		n.nIndir = which + 1
	case id == 0 && which == n.nIndir-1:
		n.nIndir = n.highestIndirect(which)
	}
}

// highestIndirect returns one past the highest non-zero indirect-node slot
// below below.
func (n *node) highestIndirect(below int64) int64 {
	for below > 0 && n.indirectID(below-1) == 0 {
		below--
	}
	return below
}

// encode patches the header, with the given version and fsync flag, into the
// node's block image and returns the image itself: the caller hands it to
// the device, which stores a copy, and must not keep or change it. The
// header lies within hdrLen, so blk[n.used:] stays zero.
func (n *node) encode(ver uint64, fsync bool) []byte {
	b := n.blk
	le := binary.LittleEndian
	flags := n.flags &^ nodeFsync
	if fsync {
		flags |= nodeFsync
	}
	le.PutUint32(b[0:], nodeMagic)
	le.PutUint32(b[4:], n.id)
	le.PutUint64(b[8:], ver)
	b[16], b[17] = flags, 0 // b[17] is reserved
	le.PutUint16(b[18:], n.mode)
	le.PutUint16(b[20:], n.links)
	le.PutUint16(b[22:], 0) // reserved
	le.PutUint64(b[24:], uint64(n.size))
	le.PutUint64(b[32:], uint64(n.mtime))
	return b
}

// decodeNode parses a node block, returning the node, its version, and its
// fsync marker. The node adopts b as its image, so b must be the caller's to
// give away (readBlock's fresh buffer).
func decodeNode(b []byte) (*node, uint64, bool, error) {
	le := binary.LittleEndian
	if le.Uint32(b[0:]) != nodeMagic {
		return nil, 0, false, fmt.Errorf("%w: not a node block", ErrCorrupt)
	}
	n := &node{
		id:    le.Uint32(b[4:]),
		flags: b[16] &^ nodeFsync,
		mode:  le.Uint16(b[18:]),
		links: le.Uint16(b[20:]),
		size:  int64(le.Uint64(b[24:])),
		mtime: int64(le.Uint64(b[32:])),
		blk:   b,
		used:  len(b), // the first writeNode finds how much is in use
	}
	if !n.isIndirect() {
		n.nIndir = n.highestIndirect(NIndirectIDs)
	}
	return n, le.Uint64(b[8:]), b[16]&nodeFsync != 0, nil
}

// tighten steps used back over the image's trailing zero bytes, no
// further than hdrLen, and returns how many bytes of the image are in use:
// the image up to its last non-zero byte. A setPtr that raised used wrote
// a block address, whose high byte is usually zero, so this is a step or
// two. A decoded node, or one whose last pointers were cleared, walks back
// by words, once.
func (n *node) tighten() int {
	k := n.used
	for k >= 8 && binary.LittleEndian.Uint64(n.blk[k-8:]) == 0 {
		k -= 8
	}
	for k > 0 && n.blk[k-1] == 0 {
		k--
	}
	n.used = max(k, hdrLen)
	return k
}

// --- NAT ---

// natLookup returns the current block address of a node, 0 if unmapped.
func (v *FS) natLookup(id uint32) uint32 {
	if id == 0 || int(id) >= len(v.nat) {
		return 0
	}
	return v.nat[id]
}

// natSet updates a node's address and marks the NAT block dirty.
func (v *FS) natSet(id, addr uint32) {
	v.nat[id] = addr
	v.natDirty[id/natEntriesPerBlock] = true
}

// allocNodeID finds an unused node ID.
func (v *FS) allocNodeID() (uint32, error) {
	n := uint32(len(v.nat))
	for scanned := uint32(0); scanned < n; scanned++ {
		id := v.nodeRotor
		v.nodeRotor++
		if v.nodeRotor >= n {
			v.nodeRotor = 1
		}
		if id == 0 {
			continue
		}
		if v.nat[id] == 0 && v.nodes[id] == nil {
			return id, nil
		}
	}
	return 0, fmt.Errorf("f2fs: out of node IDs")
}

// loadNode fetches a node through the cache.
func (v *FS) loadNode(id uint32) (*node, error) {
	if n, ok := v.nodes[id]; ok && n != nil {
		return n, nil
	}
	addr := v.natLookup(id)
	if addr == 0 {
		return nil, fs.ErrNotExist
	}
	b, err := readBlock(v.dev, addr)
	if err != nil {
		return nil, err
	}
	n, _, _, err := decodeNode(b)
	if err != nil {
		return nil, err
	}
	if n.id != id {
		return nil, fmt.Errorf("%w: NAT points node %d at node %d", ErrCorrupt, id, n.id)
	}
	v.nodes[id] = n
	return n, nil
}

// writeNode appends a node to the node log, updating NAT and segment state.
func (v *FS) writeNode(n *node, fsync bool) error {
	addr, err := v.allocLog(&v.nodeLog)
	if err != nil {
		return err
	}
	v.ver++
	b := n.encode(v.ver, fsync)
	if err := v.writeMetaPrefix(addr, b, n.tighten()); err != nil {
		return err
	}
	if old := v.natLookup(n.id); old != 0 {
		v.invalidateBlock(old)
	}
	v.natSet(n.id, addr)
	v.markValid(addr, n.id, ownerIsNode)
	n.dirty = false
	v.statNodeWrites++
	return nil
}

// flushDirtyNodes writes every dirty cached node (checkpoint path), in
// ascending node ID: each write takes the next node-log address, so map
// order here would be on-flash layout.
func (v *FS) flushDirtyNodes() error {
	var dirty []uint32
	for id, n := range v.nodes {
		if n != nil && n.dirty {
			dirty = append(dirty, id)
		}
	}
	slices.Sort(dirty)
	for _, id := range dirty {
		if err := v.writeNode(v.nodes[id], false); err != nil {
			return err
		}
	}
	return nil
}
