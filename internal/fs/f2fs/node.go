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

	direct   []uint32 // inode: NDirect data pointers
	indirect []uint32 // inode: NIndirectIDs node IDs
	ptrs     []uint32 // indirect node: IndirectPtrs data pointers

	dirty bool
}

func newInode(id uint32, mode uint16) *node {
	return &node{
		id: id, mode: mode, links: 1,
		direct:   make([]uint32, NDirect),
		indirect: make([]uint32, NIndirectIDs),
		dirty:    true,
	}
}

func newIndirect(id uint32) *node {
	return &node{
		id: id, flags: nodeIndirect,
		ptrs:  make([]uint32, IndirectPtrs),
		dirty: true,
	}
}

func (n *node) isIndirect() bool { return n.flags&nodeIndirect != 0 }

// encode serialises a node with the given version and fsync flag.
func (n *node) encode(ver uint64, fsync bool) []byte {
	b := make([]byte, BlockSize)
	le := binary.LittleEndian
	flags := n.flags &^ nodeFsync
	if fsync {
		flags |= nodeFsync
	}
	le.PutUint32(b[0:], nodeMagic)
	le.PutUint32(b[4:], n.id)
	le.PutUint64(b[8:], ver)
	b[16] = flags
	le.PutUint16(b[18:], n.mode)
	le.PutUint16(b[20:], n.links)
	le.PutUint64(b[24:], uint64(n.size))
	le.PutUint64(b[32:], uint64(n.mtime))
	if n.isIndirect() {
		for i, p := range n.ptrs {
			le.PutUint32(b[64+4*i:], p)
		}
	} else {
		for i, p := range n.direct {
			le.PutUint32(b[64+4*i:], p)
		}
		base := 64 + 4*NDirect
		for i, p := range n.indirect {
			le.PutUint32(b[base+4*i:], p)
		}
	}
	return b
}

// decodeNode parses a node block, returning the node, its version, and its
// fsync marker.
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
	}
	ver := le.Uint64(b[8:])
	fsync := b[16]&nodeFsync != 0
	if n.flags&nodeIndirect != 0 {
		n.ptrs = make([]uint32, IndirectPtrs)
		for i := range n.ptrs {
			n.ptrs[i] = le.Uint32(b[64+4*i:])
		}
	} else {
		n.direct = make([]uint32, NDirect)
		for i := range n.direct {
			n.direct[i] = le.Uint32(b[64+4*i:])
		}
		n.indirect = make([]uint32, NIndirectIDs)
		base := 64 + 4*NDirect
		for i := range n.indirect {
			n.indirect[i] = le.Uint32(b[base+4*i:])
		}
	}
	return n, ver, fsync, nil
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
	if err := v.writeMetaBlock(addr, n.encode(v.ver, fsync)); err != nil {
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
