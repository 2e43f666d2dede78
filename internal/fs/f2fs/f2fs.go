package f2fs

import (
	"encoding/binary"
	"fmt"
	"strings"

	"flashwear/internal/blockdev"
	"flashwear/internal/fs"
)

// checkpointInterval is how many fsyncs may pass between automatic
// checkpoints.
const checkpointInterval = 1024

// FS is a mounted f2fs volume. It is not safe for concurrent use.
type FS struct {
	dev  blockdev.Device
	opts fs.Options
	sb   *superblock

	nat       []uint32
	natDirty  []bool // per NAT block
	scratch   []byte // one block for the checkpoint's NAT and cp images
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

// Stats reports FS-internal activity.
type Stats struct {
	NodeWrites      int64
	DataWrites      int64 // file-content block writes through the data log
	Checkpoints     int64
	CleanedSegments int64
	RolledForward   int64
	FreeSegments    int
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
	v := &FS{
		dev: dev, opts: opts, sb: sb,
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

// Stats returns internal counters.
func (v *FS) Stats() Stats {
	return Stats{
		NodeWrites:      v.statNodeWrites,
		DataWrites:      v.statDataWrites,
		Checkpoints:     v.statCheckpoints,
		CleanedSegments: v.statCleanedSegs,
		RolledForward:   v.statRolledForward,
		FreeSegments:    v.freeSegs,
	}
}

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

// --- directories (256-byte entries, stored as directory file content) ---

const (
	dirEntSize    = 256
	dirEntNameOff = 5
)

func (v *FS) dirFind(dir *node, name string) (off int64, id uint32, err error) {
	buf := make([]byte, dirEntSize)
	for o := int64(0); o+dirEntSize <= dir.size; o += dirEntSize {
		if _, err := v.readNodeData(dir, buf, o); err != nil {
			return -1, 0, err
		}
		target := binary.LittleEndian.Uint32(buf[0:])
		if target == 0 {
			continue
		}
		nl := int(buf[4])
		if nl > dirEntSize-dirEntNameOff {
			return -1, 0, fmt.Errorf("%w: dirent name length %d", ErrCorrupt, nl)
		}
		if string(buf[dirEntNameOff:dirEntNameOff+nl]) == name {
			return o, target, nil
		}
	}
	return -1, 0, nil
}

func (v *FS) dirSet(dir *node, off int64, id uint32, name string) error {
	e := make([]byte, dirEntSize)
	binary.LittleEndian.PutUint32(e[0:], id)
	e[4] = byte(len(name))
	copy(e[dirEntNameOff:], name)
	if _, err := v.writeNodeData(dir, e, off); err != nil {
		return err
	}
	return v.writeNode(dir, true)
}

func (v *FS) dirAdd(dir *node, id uint32, name string) error {
	slot := dir.size
	buf := make([]byte, dirEntSize)
	for o := int64(0); o+dirEntSize <= dir.size; o += dirEntSize {
		if _, err := v.readNodeData(dir, buf, o); err != nil {
			return err
		}
		if binary.LittleEndian.Uint32(buf[0:]) == 0 {
			slot = o
			break
		}
	}
	return v.dirSet(dir, slot, id, name)
}

func (v *FS) dirEmpty(dir *node) (bool, error) {
	buf := make([]byte, dirEntSize)
	for o := int64(0); o+dirEntSize <= dir.size; o += dirEntSize {
		if _, err := v.readNodeData(dir, buf, o); err != nil {
			return false, err
		}
		if binary.LittleEndian.Uint32(buf[0:]) != 0 {
			return false, nil
		}
	}
	return true, nil
}

// resolve walks a path to its inode.
func (v *FS) resolve(path string) (*node, error) {
	parts, err := fs.SplitPath(path)
	if err != nil {
		return nil, err
	}
	n, err := v.loadNode(RootNode)
	if err != nil {
		return nil, err
	}
	for _, name := range parts {
		if n.mode != modeDir {
			return nil, fs.ErrNotDir
		}
		_, id, err := v.dirFind(n, name)
		if err != nil {
			return nil, err
		}
		if id == 0 {
			return nil, fs.ErrNotExist
		}
		if n, err = v.loadNode(id); err != nil {
			return nil, err
		}
	}
	return n, nil
}

func (v *FS) resolveParent(path string) (*node, string, error) {
	dir, base, err := fs.DirBase(path)
	if err != nil {
		return nil, "", err
	}
	parent, err := v.resolve(dir)
	if err != nil {
		return nil, "", err
	}
	if parent.mode != modeDir {
		return nil, "", fs.ErrNotDir
	}
	return parent, base, nil
}

// --- fs.FileSystem ---

// Create implements fs.FileSystem.
func (v *FS) Create(path string) (fs.File, error) {
	if err := v.alive(); err != nil {
		return nil, err
	}
	parent, name, err := v.resolveParent(path)
	if err != nil {
		return nil, err
	}
	if _, existing, err := v.dirFind(parent, name); err != nil {
		return nil, err
	} else if existing != 0 {
		n, err := v.loadNode(existing)
		if err != nil {
			return nil, err
		}
		if n.mode == modeDir {
			return nil, fs.ErrIsDir
		}
		f := &file{fs: v, n: n}
		if err := f.Truncate(0); err != nil {
			return nil, err
		}
		return f, nil
	}
	id, err := v.allocNodeID()
	if err != nil {
		return nil, err
	}
	n := newInode(id, modeFile)
	n.mtime = v.nowNanos()
	v.nodes[id] = n
	if err := v.writeNode(n, true); err != nil {
		return nil, err
	}
	if err := v.dirAdd(parent, id, name); err != nil {
		return nil, err
	}
	if err := v.dev.Flush(); err != nil {
		return nil, err
	}
	return &file{fs: v, n: n}, nil
}

// Open implements fs.FileSystem.
func (v *FS) Open(path string) (fs.File, error) {
	if err := v.alive(); err != nil {
		return nil, err
	}
	n, err := v.resolve(path)
	if err != nil {
		return nil, err
	}
	if n.mode == modeDir {
		return nil, fs.ErrIsDir
	}
	return &file{fs: v, n: n}, nil
}

// Mkdir implements fs.FileSystem.
func (v *FS) Mkdir(path string) error {
	if err := v.alive(); err != nil {
		return err
	}
	parent, name, err := v.resolveParent(path)
	if err != nil {
		return err
	}
	if _, existing, err := v.dirFind(parent, name); err != nil {
		return err
	} else if existing != 0 {
		return fs.ErrExist
	}
	id, err := v.allocNodeID()
	if err != nil {
		return err
	}
	n := newInode(id, modeDir)
	n.mtime = v.nowNanos()
	v.nodes[id] = n
	if err := v.writeNode(n, true); err != nil {
		return err
	}
	if err := v.dirAdd(parent, id, name); err != nil {
		return err
	}
	return v.dev.Flush()
}

// Remove implements fs.FileSystem.
func (v *FS) Remove(path string) error {
	if err := v.alive(); err != nil {
		return err
	}
	parent, name, err := v.resolveParent(path)
	if err != nil {
		return err
	}
	off, id, err := v.dirFind(parent, name)
	if err != nil {
		return err
	}
	if id == 0 {
		return fs.ErrNotExist
	}
	n, err := v.loadNode(id)
	if err != nil {
		return err
	}
	if n.mode == modeDir {
		empty, err := v.dirEmpty(n)
		if err != nil {
			return err
		}
		if !empty {
			return fs.ErrNotEmpty
		}
	}
	if err := v.truncateNode(n, 0); err != nil {
		return err
	}
	// Write a dead-node marker so roll-forward does not resurrect the
	// file, then drop the mapping entirely.
	n.flags |= nodeDead
	if err := v.writeNode(n, true); err != nil {
		return err
	}
	if addr := v.natLookup(id); addr != 0 {
		v.invalidateBlock(addr)
	}
	v.natSet(id, 0)
	delete(v.nodes, id)
	if err := v.dirSet(parent, off, 0, ""); err != nil {
		return err
	}
	return v.dev.Flush()
}

// Rename implements fs.FileSystem: both directory updates are fsync-marked
// so the move survives a crash via roll-forward, replacing a regular file
// at the target if present.
func (v *FS) Rename(oldPath, newPath string) error {
	if err := v.alive(); err != nil {
		return err
	}
	oldParent, oldName, err := v.resolveParent(oldPath)
	if err != nil {
		return err
	}
	oldOff, id, err := v.dirFind(oldParent, oldName)
	if err != nil {
		return err
	}
	if id == 0 {
		return fs.ErrNotExist
	}
	moving, err := v.loadNode(id)
	if err != nil {
		return err
	}
	newParent, newName, err := v.resolveParent(newPath)
	if err != nil {
		return err
	}
	newOff, existing, err := v.dirFind(newParent, newName)
	if err != nil {
		return err
	}
	if existing == id {
		return nil
	}
	if existing != 0 {
		target, err := v.loadNode(existing)
		if err != nil {
			return err
		}
		if target.mode == modeDir {
			return fs.ErrIsDir
		}
		if moving.mode == modeDir {
			return fs.ErrNotDir
		}
		if err := v.truncateNode(target, 0); err != nil {
			return err
		}
		target.flags |= nodeDead
		if err := v.writeNode(target, true); err != nil {
			return err
		}
		if addr := v.natLookup(existing); addr != 0 {
			v.invalidateBlock(addr)
		}
		v.natSet(existing, 0)
		delete(v.nodes, existing)
		if err := v.dirSet(newParent, newOff, id, newName); err != nil {
			return err
		}
	} else {
		if err := v.dirAdd(newParent, id, newName); err != nil {
			return err
		}
		if newParent == oldParent {
			if oldOff, id, err = v.dirFind(oldParent, oldName); err != nil || id == 0 {
				return fmt.Errorf("%w: rename lost source entry", ErrCorrupt)
			}
		}
	}
	if err := v.dirSet(oldParent, oldOff, 0, ""); err != nil {
		return err
	}
	return v.dev.Flush()
}

// ReadDir implements fs.FileSystem.
func (v *FS) ReadDir(path string) ([]fs.DirEntry, error) {
	if err := v.alive(); err != nil {
		return nil, err
	}
	n, err := v.resolve(path)
	if err != nil {
		return nil, err
	}
	if n.mode != modeDir {
		return nil, fs.ErrNotDir
	}
	var out []fs.DirEntry
	buf := make([]byte, dirEntSize)
	for o := int64(0); o+dirEntSize <= n.size; o += dirEntSize {
		if _, err := v.readNodeData(n, buf, o); err != nil {
			return nil, err
		}
		id := binary.LittleEndian.Uint32(buf[0:])
		if id == 0 {
			continue
		}
		child, err := v.loadNode(id)
		if err != nil {
			return nil, err
		}
		nl := int(buf[4])
		out = append(out, fs.DirEntry{
			Name:  string(buf[dirEntNameOff : dirEntNameOff+nl]),
			IsDir: child.mode == modeDir,
		})
	}
	return out, nil
}

// Stat implements fs.FileSystem.
func (v *FS) Stat(path string) (fs.FileInfo, error) {
	if err := v.alive(); err != nil {
		return fs.FileInfo{}, err
	}
	n, err := v.resolve(path)
	if err != nil {
		return fs.FileInfo{}, err
	}
	name := path
	if i := strings.LastIndexByte(strings.TrimRight(path, "/"), '/'); i >= 0 {
		name = strings.TrimRight(path, "/")[i+1:]
	}
	return fs.FileInfo{Name: name, Size: n.size, IsDir: n.mode == modeDir}, nil
}

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
