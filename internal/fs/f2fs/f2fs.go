package f2fs

import (
	"encoding/binary"
	"fmt"

	"flashwear/internal/blockdev"
	"flashwear/internal/fs"
)

// checkpointInterval is how many fsyncs may pass between automatic
// checkpoints.
const checkpointInterval = 1024

// FS is a mounted f2fs volume. It is not safe for concurrent use.
type FS struct {
	dev  blockdev.Device
	pw   blockdev.PrefixWriter // dev's WritePrefix, nil when it has none
	opts fs.Options
	sb   *superblock

	nat       []uint32
	natDirty  []bool // per NAT block
	scratch   []byte // one block for the checkpoint's NAT and cp images, and the slot names.Slot read
	nodes     map[uint32]*node
	nodeRotor uint32
	ver       uint64

	dataLog logState
	nodeLog logState

	segState   []uint8
	validCount []uint16
	validMap   []uint64
	owner      []uint32
	ofs        []uint32
	freeSegs   int

	cpIndex       int // checkpoint slot to write next (0 or 1)
	cleaning      bool
	checkpointing bool
	unmounted     bool
	nowCounter    int64
	fsyncsSinceCP int

	statNodeWrites    int64
	statDataWrites    int64
	statCheckpoints   int64
	statCleanedSegs   int64
	statRolledForward int64
}

// Mkfs formats the device with a fresh, empty f2fs volume.
func Mkfs(dev blockdev.Device) error {
	sb, err := computeLayout(dev.Size())
	if err != nil {
		return err
	}
	sb.state = stateClean
	zero := make([]byte, BlockSize)
	for blk := sb.cpStart; blk < sb.natStart+sb.natBlks; blk++ {
		if err := writeBlock(dev, blk, zero); err != nil {
			return err
		}
	}
	// Root inode at the first main-area block, version 1.
	root := newInode(RootNode, modeDir)
	rootAddr := sb.mainStart
	if err := writeBlock(dev, rootAddr, root.encode(1, false)); err != nil {
		return err
	}
	// NAT entry for the root.
	natBlk := make([]byte, BlockSize)
	binary.LittleEndian.PutUint32(natBlk[RootNode*4:], rootAddr)
	if err := writeBlock(dev, sb.natStart, natBlk); err != nil {
		return err
	}
	// Checkpoint: logs positioned after the root node.
	cp := checkpoint{ver: 1, dataSeg: 1, dataOff: 0, nodeSeg: 0, nodeOff: 1}
	if err := writeBlock(dev, sb.cpStart, cp.encode(make([]byte, BlockSize))); err != nil {
		return err
	}
	if err := writeBlock(dev, 0, sb.encode()); err != nil {
		return err
	}
	return dev.Flush()
}

// Mount opens an f2fs volume, performing roll-forward recovery after an
// unclean shutdown.
func Mount(dev blockdev.Device, opts fs.Options) (*FS, error) {
	b, err := readBlock(dev, 0)
	if err != nil {
		return nil, err
	}
	sb, err := decodeSuperblock(b)
	if err != nil {
		return nil, err
	}
	pw, _ := dev.(blockdev.PrefixWriter)
	v := &FS{
		dev: dev, pw: pw, opts: opts, sb: sb,
		natDirty:  make([]bool, sb.natBlks),
		scratch:   make([]byte, BlockSize),
		nodes:     make(map[uint32]*node),
		nodeRotor: 1,
		dataLog:   logState{seg: ^uint32(0)},
		nodeLog:   logState{seg: ^uint32(0)},
	}
	// Pick the newest valid checkpoint.
	var cp checkpoint
	found := false
	for i := 0; i < 2; i++ {
		cb, err := readBlock(dev, sb.cpStart+uint32(i))
		if err != nil {
			return nil, err
		}
		if c, ok := decodeCheckpoint(cb); ok && (!found || c.ver > cp.ver) {
			cp = c
			found = true
			v.cpIndex = 1 - i // write the other slot next
		}
	}
	if !found {
		return nil, fmt.Errorf("%w: no valid checkpoint", ErrCorrupt)
	}
	v.ver = cp.ver
	// Load the NAT.
	v.nat = make([]uint32, int(sb.natBlks)*natEntriesPerBlock)
	for i := uint32(0); i < sb.natBlks; i++ {
		nb, err := readBlock(dev, sb.natStart+i)
		if err != nil {
			return nil, err
		}
		base := int(i) * natEntriesPerBlock
		for e := 0; e < natEntriesPerBlock; e++ {
			v.nat[base+e] = binary.LittleEndian.Uint32(nb[e*4:])
		}
	}
	if sb.state != stateClean {
		if err := v.rollForward(cp.ver); err != nil {
			return nil, fmt.Errorf("f2fs: roll-forward: %w", err)
		}
	}
	if err := v.rebuild(); err != nil {
		return nil, fmt.Errorf("f2fs: rebuild: %w", err)
	}
	if sb.state != stateClean {
		// Recovery must end with a checkpoint (as real F2FS does): it
		// persists the rolled-forward NAT and bumps the version past
		// everything on disk, so node versions from different crash
		// generations can never shadow one another.
		if err := v.checkpointLocked(); err != nil {
			return nil, fmt.Errorf("f2fs: post-recovery checkpoint: %w", err)
		}
	}
	// Mark mounted (dirty) so a crash triggers recovery next time.
	sb.state = stateMounted
	if err := writeBlock(dev, 0, sb.encode()); err != nil {
		return nil, err
	}
	if err := dev.Flush(); err != nil {
		return nil, err
	}
	return v, nil
}

// Name implements fs.FileSystem.
func (v *FS) Name() string { return "f2fs" }

func (v *FS) nowNanos() int64 {
	v.nowCounter++
	return v.nowCounter
}

func (v *FS) alive() error {
	if v.unmounted {
		return fs.ErrUnmounted
	}
	return nil
}

// checkpointLocked flushes dirty nodes and the NAT, writes a checkpoint
// block, and frees quarantined segments.
func (v *FS) checkpointLocked() error {
	if v.checkpointing {
		return nil
	}
	v.checkpointing = true
	defer func() { v.checkpointing = false }()

	if err := v.flushDirtyNodes(); err != nil {
		return err
	}
	// Every NAT image and the checkpoint block are built in one scratch
	// block: WriteAt does not retain it.
	nb := v.scratch
	for blkIdx, dirty := range v.natDirty {
		if !dirty {
			continue
		}
		base := blkIdx * natEntriesPerBlock
		for e := 0; e < natEntriesPerBlock; e++ {
			binary.LittleEndian.PutUint32(nb[e*4:], v.nat[base+e])
		}
		if err := writeBlock(v.dev, v.sb.natStart+uint32(blkIdx), nb); err != nil {
			return err
		}
	}
	clear(v.natDirty)
	if err := v.dev.Flush(); err != nil {
		return err
	}
	v.ver++
	cp := checkpoint{
		ver:     v.ver,
		dataSeg: v.dataLog.seg, dataOff: v.dataLog.off,
		nodeSeg: v.nodeLog.seg, nodeOff: v.nodeLog.off,
	}
	if err := writeBlock(v.dev, v.sb.cpStart+uint32(v.cpIndex), cp.encode(nb)); err != nil {
		return err
	}
	v.cpIndex = 1 - v.cpIndex
	if err := v.dev.Flush(); err != nil {
		return err
	}
	// Quarantined segments are now safe to reuse: nothing on disk
	// references their old content.
	for s := uint32(0); s < v.sb.segCount; s++ {
		if v.segState[s] == segQuarantine {
			v.segState[s] = segFree
			v.freeSegs++
			_ = v.dev.Discard(int64(v.segBase(s))*BlockSize, SegBlocks*BlockSize)
		}
	}
	v.fsyncsSinceCP = 0
	v.statCheckpoints++
	return nil
}

// --- the namespace ---

// names is the FS as the shared namespace and file handle (fs.Nodes) see
// it: nodes, directory slots read one at a time through the directory's
// mapping, and file content in the data log (file.go).
type names FS

func (h *names) Alive() error                  { return (*FS)(h).alive() }
func (h *names) Root() (*node, error)          { return (*FS)(h).loadNode(RootNode) }
func (h *names) Load(id uint32) (*node, error) { return (*FS)(h).loadNode(id) }
func (*names) IsDir(n *node) bool              { return n.mode == modeDir }
func (*names) Size(n *node) int64              { return n.size }
func (*names) Scan(*node) error                { return nil }
func (h *names) Done() error                   { return h.dev.Flush() }
func (*names) Corrupt() error                  { return ErrCorrupt }

// Slot reads the slot at off from the device, into the scratch block: a
// checkpoint, the scratch block's other user, comes only with a write.
// Slots never straddle a block.
func (h *names) Slot(dir *node, off int64) ([]byte, error) {
	slot := h.scratch[:fs.DirentSize]
	return slot, h.ReadBlock(dir, off/BlockSize, int(off%BlockSize), slot)
}

func (h *names) Set(dir *node, off int64, n *node, name string) error {
	return h.dirSet(dir, off, n.id, name)
}

func (h *names) Unlink(dir *node, off int64) error { return h.dirSet(dir, off, 0, "") }

func (h *names) Alloc(dir bool) (*node, error) {
	v := (*FS)(h)
	id, err := v.allocNodeID()
	if err != nil {
		return nil, err
	}
	mode := uint16(modeFile)
	if dir {
		mode = modeDir
	}
	n := newInode(id, mode)
	n.mtime = v.nowNanos()
	v.nodes[id] = n
	return n, v.writeNode(n, true)
}

// Release writes a dead-node marker, so roll-forward does not resurrect
// the node, then drops its mapping entirely.
func (h *names) Release(n *node) error {
	v := (*FS)(h)
	if err := v.truncateNode(n, 0); err != nil {
		return err
	}
	n.flags |= nodeDead
	if err := v.writeNode(n, true); err != nil {
		return err
	}
	if addr := v.natLookup(n.id); addr != 0 {
		v.invalidateBlock(addr)
	}
	v.natSet(n.id, 0)
	delete(v.nodes, n.id)
	return nil
}

// dirSet writes one slot at off and the directory's node, fsync-marked so
// the change survives a crash via roll-forward.
func (h *names) dirSet(dir *node, off int64, id uint32, name string) error {
	e := fs.Dirent(id, name)
	if err := h.WriteBlock(dir, off/BlockSize, int(off%BlockSize), e[:]); err != nil {
		return err
	}
	h.Wrote(dir, off+fs.DirentSize)
	return (*FS)(h).writeNode(dir, true)
}

// Create implements fs.FileSystem.
func (v *FS) Create(path string) (fs.File, error) { return fs.Create((*names)(v), path) }

// Open implements fs.FileSystem.
func (v *FS) Open(path string) (fs.File, error) { return fs.Open((*names)(v), path) }

// Mkdir implements fs.FileSystem.
func (v *FS) Mkdir(path string) error { return fs.Mkdir((*names)(v), path) }

// Remove implements fs.FileSystem.
func (v *FS) Remove(path string) error { return fs.Remove((*names)(v), path) }

// Rename implements fs.FileSystem: both directory updates are fsync-marked
// so the move survives a crash via roll-forward.
func (v *FS) Rename(oldPath, newPath string) error {
	return fs.Rename((*names)(v), oldPath, newPath)
}

// ReadDir implements fs.FileSystem.
func (v *FS) ReadDir(path string) ([]fs.DirEntry, error) { return fs.ReadDir((*names)(v), path) }

// Stat implements fs.FileSystem.
func (v *FS) Stat(path string) (fs.FileInfo, error) { return fs.Stat((*names)(v), path) }

// Sync implements fs.FileSystem: full checkpoint.
func (v *FS) Sync() error {
	if err := v.alive(); err != nil {
		return err
	}
	return v.checkpointLocked()
}

// Unmount implements fs.FileSystem.
func (v *FS) Unmount() error {
	if v.unmounted {
		return fs.ErrUnmounted
	}
	if err := v.checkpointLocked(); err != nil {
		return err
	}
	v.sb.state = stateClean
	if err := writeBlock(v.dev, 0, v.sb.encode()); err != nil {
		return err
	}
	if err := v.dev.Flush(); err != nil {
		return err
	}
	v.unmounted = true
	return nil
}

// SimulateCrash drops all in-memory state without checkpointing, leaving
// the device exactly as a power cut would.
func (v *FS) SimulateCrash() {
	v.unmounted = true
	v.nodes = nil
	v.nat = nil
	v.validMap = nil
	v.owner = nil
	v.ofs = nil
}

var _ fs.FileSystem = (*FS)(nil)
