package extfs

import (
	"encoding/binary"
	"fmt"
	"strings"

	"flashwear/internal/blockdev"
	"flashwear/internal/fs"
)

var errNoSpace = fs.ErrNoSpace

// lazyFlushInterval is how many timestamp-only fsyncs may pass before the
// inode is journaled anyway (lazytime semantics).
const lazyFlushInterval = 64

// FS is a mounted extfs volume. It is not safe for concurrent use.
type FS struct {
	dev  blockdev.Device
	opts fs.Options
	sb   *superblock

	bitmap            []uint64
	dirtyBitmapBlocks map[uint32]bool
	quarantine        map[uint32]bool // freed, pending checkpoint (revoke-lite)
	freeBlocks        int64
	allocRotor        uint32

	inodes map[uint32]*inode
	// meta is the metadata cache, indexed by block and totalBlocks long:
	// the newest image of a block readMeta has served, or nil.
	meta    [][]byte
	txn     map[uint32][]byte
	pending map[uint32][]byte

	// scratch is one block for the journal's descriptor, commit record and
	// superblock; keys holds the sorted homes of a commit or checkpoint.
	scratch []byte
	keys    []uint32
	// dirBlks holds a directory's blocks while dirFind looks through them.
	dirBlks [][]byte

	jHead uint32
	jSeq  uint64

	// gen numbers the mounts an FS has been through; a file handle works
	// only in the mount that opened it.
	gen        uint32
	unmounted  bool
	nowCounter int64

	lazySyncs            int
	statJournalCommits   int64
	statJournalBlocks    int64
	statCheckpointWrites int64
	statDataBlocks       int64
	statReplayedTxns     int
}

// Stats reports FS-internal activity, used by the write-amplification
// experiments.
type Stats struct {
	JournalCommits   int64
	JournalBlocks    int64 // journal-region block writes (desc + bodies + commit)
	CheckpointWrites int64
	DataBlocks       int64 // file-content block writes
	ReplayedTxns     int
	FreeBlocks       int64
}

// Mkfs formats the device with a fresh, empty extfs volume.
func Mkfs(dev blockdev.Device) error {
	sb, err := computeLayout(dev.Size())
	if err != nil {
		return err
	}
	sb.state = stateClean
	// Zero metadata regions.
	zero := make([]byte, BlockSize)
	for blk := uint32(0); blk < sb.dataStart; blk++ {
		if err := writeBlock(dev, blk, zero); err != nil {
			return err
		}
	}
	// Bitmap: mark everything below dataStart (and the tail past the
	// volume, if the bitmap over-covers) as allocated.
	words := make([]uint64, int(sb.bitmapBlks)*BlockSize/8)
	mark := func(blk uint32) { words[blk/64] |= 1 << (blk % 64) }
	for blk := uint32(0); blk < sb.dataStart; blk++ {
		mark(blk)
	}
	for blk := sb.totalBlocks; blk < uint32(len(words)*64); blk++ {
		mark(blk)
	}
	buf := make([]byte, BlockSize)
	for i := uint32(0); i < sb.bitmapBlks; i++ {
		base := int(i) * BlockSize / 8
		for w := 0; w < BlockSize/8; w++ {
			binary.LittleEndian.PutUint64(buf[w*8:], words[base+w])
		}
		if err := writeBlock(dev, sb.bitmapStart+i, buf); err != nil {
			return err
		}
	}
	// Root directory inode.
	itb := make([]byte, BlockSize)
	root := inode{ino: RootIno, mode: modeDir, links: 1}
	root.encodeInto(itb[RootIno*InodeSize:])
	if err := writeBlock(dev, sb.itableStart, itb); err != nil {
		return err
	}
	// Journal superblock.
	if err := writeBlock(dev, sb.jStart, journalSuper{seq: 1}.encode(buf)); err != nil {
		return err
	}
	if err := writeBlock(dev, 0, sb.encode(buf)); err != nil {
		return err
	}
	return dev.Flush()
}

// Mount opens an extfs volume, replaying the journal after an unclean
// shutdown.
func Mount(dev blockdev.Device, opts fs.Options) (*FS, error) {
	return Remount(nil, dev, opts)
}

// Remount opens the extfs volume on dev in prev, reusing its tables and
// buffers, and returns prev; a nil prev is Mount. Whatever prev held is
// dropped unwritten, as SimulateCrash drops it, and the files prev's
// earlier mounts opened fail with fs.ErrUnmounted from then on. The
// mounted volume is as Mount would have mounted it. On an error, prev is
// left unmounted, to be remounted again.
func Remount(prev *FS, dev blockdev.Device, opts fs.Options) (*FS, error) {
	v := prev
	if v == nil {
		v = &FS{}
	}
	if err := v.mount(dev, opts); err != nil {
		return nil, err
	}
	return v, nil
}

// reset readies v to mount dev: every field as in a new FS, with v's
// maps, metadata table and buffers emptied for reuse, a new generation,
// and v unmounted until the mount succeeds.
func (v *FS) reset(dev blockdev.Device, opts fs.Options) {
	clear(v.meta[:cap(v.meta)])
	clear(v.dirBlks)
	scratch := v.scratch
	if scratch == nil {
		scratch = make([]byte, BlockSize)
	}
	*v = FS{
		dev: dev, opts: opts,
		bitmap:            v.bitmap,
		dirtyBitmapBlocks: emptied(v.dirtyBitmapBlocks),
		quarantine:        emptied(v.quarantine),
		inodes:            emptied(v.inodes),
		meta:              v.meta[:0],
		txn:               emptied(v.txn),
		pending:           emptied(v.pending),
		scratch:           scratch,
		keys:              v.keys[:0],
		dirBlks:           v.dirBlks[:0],
		gen:               v.gen + 1,
		unmounted:         true,
	}
}

// emptied returns m cleared, or a new map if m is nil.
func emptied[V any](m map[uint32]V) map[uint32]V {
	if m == nil {
		return make(map[uint32]V)
	}
	clear(m)
	return m
}

func (v *FS) mount(dev blockdev.Device, opts fs.Options) error {
	v.reset(dev, opts)
	b, err := readBlockInto(dev, 0, v.scratch)
	if err != nil {
		return err
	}
	sb, err := decodeSuperblock(b)
	if err != nil {
		return err
	}
	if int64(sb.totalBlocks)*BlockSize > dev.Size() {
		return fmt.Errorf("%w: %d blocks on a %d-byte device", ErrCorrupt, sb.totalBlocks, dev.Size())
	}
	v.sb = sb
	if n := int(sb.totalBlocks); cap(v.meta) < n {
		v.meta = make([][]byte, n)
	} else {
		v.meta = v.meta[:n]
	}
	if sb.state != stateClean {
		n, err := v.replay()
		if err != nil {
			return fmt.Errorf("extfs: journal replay: %w", err)
		}
		v.statReplayedTxns = n
	} else {
		jb, err := readBlockInto(dev, sb.jStart, v.scratch)
		if err != nil {
			return err
		}
		jsb, err := decodeJournalSuper(jb)
		if err != nil {
			return err
		}
		v.jSeq = jsb.seq
		v.jHead = sb.jStart + 1
	}
	if err := v.loadBitmap(); err != nil {
		return err
	}
	v.countFree()
	// Mark mounted (dirty) so a crash triggers replay next time.
	sb.state = stateMounted
	if err := writeBlock(dev, 0, sb.encode(v.scratch)); err != nil {
		return err
	}
	if err := dev.Flush(); err != nil {
		return err
	}
	v.unmounted = false
	return nil
}

// Name implements fs.FileSystem.
func (v *FS) Name() string { return "extfs" }

// Stats returns internal counters.
func (v *FS) Stats() Stats {
	return Stats{
		JournalCommits:   v.statJournalCommits,
		JournalBlocks:    v.statJournalBlocks,
		CheckpointWrites: v.statCheckpointWrites,
		DataBlocks:       v.statDataBlocks,
		ReplayedTxns:     v.statReplayedTxns,
		FreeBlocks:       v.freeBlocks,
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

// --- directories ---

// Directory entries are fixed 256-byte slots: ino u32, nameLen u8, name.
const (
	dirEntSize    = 256
	dirEntNameOff = 5
)

// dirBlocks reads a directory's content blocks (journal-aware).
func (v *FS) dirContent(in *inode) ([]byte, error) {
	if in.mode != modeDir {
		return nil, fs.ErrNotDir
	}
	nblk := (in.size + BlockSize - 1) / BlockSize
	out := make([]byte, 0, in.size)
	for i := int64(0); i < nblk; i++ {
		blk, err := v.bmap(in, i, false)
		if err != nil {
			return nil, err
		}
		if blk == 0 {
			return nil, fmt.Errorf("%w: hole in directory %d", ErrCorrupt, in.ino)
		}
		b, err := v.readMeta(blk)
		if err != nil {
			return nil, err
		}
		out = append(out, b...)
	}
	return out[:in.size], nil
}

// dirFind looks a name up, returning the entry's byte offset and the target
// inode, or off = -1. Like dirContent it reads every block of the
// directory before it looks at any entry, but it looks at them where
// they are instead of in a copy: entries never straddle a block.
func (v *FS) dirFind(in *inode, name string) (off int64, ino uint32, err error) {
	if in.mode != modeDir {
		return -1, 0, fs.ErrNotDir
	}
	nblk := (in.size + BlockSize - 1) / BlockSize
	v.dirBlks = v.dirBlks[:0]
	for i := int64(0); i < nblk; i++ {
		blk, err := v.bmap(in, i, false)
		if err != nil {
			return -1, 0, err
		}
		if blk == 0 {
			return -1, 0, fmt.Errorf("%w: hole in directory %d", ErrCorrupt, in.ino)
		}
		b, err := v.readMeta(blk)
		if err != nil {
			return -1, 0, err
		}
		v.dirBlks = append(v.dirBlks, b)
	}
	for i, b := range v.dirBlks {
		base := int64(i) * BlockSize
		for o := 0; o+dirEntSize <= BlockSize && base+int64(o)+dirEntSize <= in.size; o += dirEntSize {
			e := b[o : o+dirEntSize]
			target := binary.LittleEndian.Uint32(e[0:])
			if target == 0 {
				continue
			}
			nl := int(e[4])
			if nl > dirEntSize-dirEntNameOff {
				return -1, 0, fmt.Errorf("%w: dirent name length %d", ErrCorrupt, nl)
			}
			if string(e[dirEntNameOff:dirEntNameOff+nl]) == name {
				return base + int64(o), target, nil
			}
		}
	}
	return -1, 0, nil
}

// dirSet writes one 256-byte entry at off (which must be slot-aligned and
// within or exactly at the end of the directory), growing it if needed.
func (v *FS) dirSet(in *inode, off int64, ino uint32, name string) error {
	e := make([]byte, dirEntSize)
	binary.LittleEndian.PutUint32(e[0:], ino)
	e[4] = byte(len(name))
	copy(e[dirEntNameOff:], name)

	blkIdx := off / BlockSize
	blk, err := v.bmap(in, blkIdx, true)
	if err != nil {
		return err
	}
	var b []byte
	if off < in.size || off%BlockSize != 0 {
		cur, err := v.readMeta(blk)
		if err != nil {
			return err
		}
		b = make([]byte, BlockSize)
		copy(b, cur)
	} else {
		b = make([]byte, BlockSize)
	}
	copy(b[off%BlockSize:], e)
	v.stageMeta(blk, b)
	if off+dirEntSize > in.size {
		in.size = off + dirEntSize
		in.hardDirty = true
	}
	in.mtime = v.nowNanos()
	return v.flushInode(in)
}

// dirAdd appends (or reuses a tombstone slot for) a new entry.
func (v *FS) dirAdd(in *inode, ino uint32, name string) error {
	content, err := v.dirContent(in)
	if err != nil {
		return err
	}
	slot := int64(len(content))
	for o := 0; o+dirEntSize <= len(content); o += dirEntSize {
		if binary.LittleEndian.Uint32(content[o:]) == 0 {
			slot = int64(o)
			break
		}
	}
	return v.dirSet(in, slot, ino, name)
}

// dirDelete tombstones the entry at off.
func (v *FS) dirDelete(in *inode, off int64) error {
	return v.dirSet(in, off, 0, "")
}

// dirEmpty reports whether the directory has no live entries.
func (v *FS) dirEmpty(in *inode) (bool, error) {
	content, err := v.dirContent(in)
	if err != nil {
		return false, err
	}
	for o := 0; o+dirEntSize <= len(content); o += dirEntSize {
		if binary.LittleEndian.Uint32(content[o:]) != 0 {
			return false, nil
		}
	}
	return true, nil
}

// resolve walks a path to its inode.
func (v *FS) resolve(path string) (*inode, error) {
	path = strings.Trim(path, "/")
	for rest := path; rest != ""; {
		var name string
		name, rest, _ = strings.Cut(rest, "/")
		if err := fs.CheckName(name); err != nil {
			return nil, err
		}
	}
	in, err := v.loadInode(RootIno)
	if err != nil {
		return nil, err
	}
	for rest := path; rest != ""; {
		var name string
		name, rest, _ = strings.Cut(rest, "/")
		if in.mode != modeDir {
			return nil, fs.ErrNotDir
		}
		_, ino, err := v.dirFind(in, name)
		if err != nil {
			return nil, err
		}
		if ino == 0 {
			return nil, fs.ErrNotExist
		}
		if in, err = v.loadInode(ino); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// resolveParent returns the parent directory inode and the final name.
func (v *FS) resolveParent(path string) (*inode, string, error) {
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
		in, err := v.loadInode(existing)
		if err != nil {
			return nil, err
		}
		if in.mode == modeDir {
			return nil, fs.ErrIsDir
		}
		f := &file{fs: v, in: in, gen: v.gen}
		if err := f.Truncate(0); err != nil {
			return nil, err
		}
		return f, nil
	}
	in, err := v.allocInode(modeFile)
	if err != nil {
		return nil, err
	}
	if err := v.flushInode(in); err != nil {
		return nil, err
	}
	if err := v.dirAdd(parent, in.ino, name); err != nil {
		return nil, err
	}
	if err := v.commit(); err != nil {
		return nil, err
	}
	return &file{fs: v, in: in, gen: v.gen}, nil
}

// Open implements fs.FileSystem.
func (v *FS) Open(path string) (fs.File, error) {
	if err := v.alive(); err != nil {
		return nil, err
	}
	in, err := v.resolve(path)
	if err != nil {
		return nil, err
	}
	if in.mode == modeDir {
		return nil, fs.ErrIsDir
	}
	return &file{fs: v, in: in, gen: v.gen}, nil
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
	in, err := v.allocInode(modeDir)
	if err != nil {
		return err
	}
	if err := v.flushInode(in); err != nil {
		return err
	}
	if err := v.dirAdd(parent, in.ino, name); err != nil {
		return err
	}
	return v.commit()
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
	off, ino, err := v.dirFind(parent, name)
	if err != nil {
		return err
	}
	if ino == 0 {
		return fs.ErrNotExist
	}
	in, err := v.loadInode(ino)
	if err != nil {
		return err
	}
	if in.mode == modeDir {
		empty, err := v.dirEmpty(in)
		if err != nil {
			return err
		}
		if !empty {
			return fs.ErrNotEmpty
		}
	}
	if err := v.truncateInode(in, 0); err != nil {
		return err
	}
	in.mode = modeFree
	in.hardDirty = true
	if err := v.flushInode(in); err != nil {
		return err
	}
	delete(v.inodes, ino)
	if err := v.dirDelete(parent, off); err != nil {
		return err
	}
	v.stageBitmap()
	return v.commit()
}

// Rename implements fs.FileSystem: the entry moves in one journal
// transaction, replacing a regular file at the target if present.
func (v *FS) Rename(oldPath, newPath string) error {
	if err := v.alive(); err != nil {
		return err
	}
	oldParent, oldName, err := v.resolveParent(oldPath)
	if err != nil {
		return err
	}
	oldOff, ino, err := v.dirFind(oldParent, oldName)
	if err != nil {
		return err
	}
	if ino == 0 {
		return fs.ErrNotExist
	}
	moving, err := v.loadInode(ino)
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
	if existing == ino {
		return nil // rename onto itself
	}
	if existing != 0 {
		target, err := v.loadInode(existing)
		if err != nil {
			return err
		}
		if target.mode == modeDir {
			return fs.ErrIsDir
		}
		if moving.mode == modeDir {
			return fs.ErrNotDir
		}
		// Replace: the old target's storage is released.
		if err := v.truncateInode(target, 0); err != nil {
			return err
		}
		target.mode = modeFree
		target.hardDirty = true
		if err := v.flushInode(target); err != nil {
			return err
		}
		delete(v.inodes, existing)
		if err := v.dirSet(newParent, newOff, ino, newName); err != nil {
			return err
		}
	} else {
		if err := v.dirAdd(newParent, ino, newName); err != nil {
			return err
		}
		// dirAdd may have grown/changed the parent; refresh old offset if
		// both paths share a parent directory.
		if newParent == oldParent {
			if oldOff, ino, err = v.dirFind(oldParent, oldName); err != nil || ino == 0 {
				return fmt.Errorf("%w: rename lost source entry", ErrCorrupt)
			}
		}
	}
	if err := v.dirDelete(oldParent, oldOff); err != nil {
		return err
	}
	v.stageBitmap()
	return v.commit()
}

// ReadDir implements fs.FileSystem.
func (v *FS) ReadDir(path string) ([]fs.DirEntry, error) {
	if err := v.alive(); err != nil {
		return nil, err
	}
	in, err := v.resolve(path)
	if err != nil {
		return nil, err
	}
	content, err := v.dirContent(in)
	if err != nil {
		return nil, err
	}
	var out []fs.DirEntry
	for o := 0; o+dirEntSize <= len(content); o += dirEntSize {
		e := content[o : o+dirEntSize]
		ino := binary.LittleEndian.Uint32(e[0:])
		if ino == 0 {
			continue
		}
		child, err := v.loadInode(ino)
		if err != nil {
			return nil, err
		}
		nl := int(e[4])
		out = append(out, fs.DirEntry{
			Name:  string(e[dirEntNameOff : dirEntNameOff+nl]),
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
	in, err := v.resolve(path)
	if err != nil {
		return fs.FileInfo{}, err
	}
	name := path
	if i := strings.LastIndexByte(strings.TrimRight(path, "/"), '/'); i >= 0 {
		name = strings.TrimRight(path, "/")[i+1:]
	}
	return fs.FileInfo{Name: name, Size: in.size, IsDir: in.mode == modeDir}, nil
}

// Sync implements fs.FileSystem: flush all dirty inodes and commit.
func (v *FS) Sync() error {
	if err := v.alive(); err != nil {
		return err
	}
	// Sorted order: flushInode reads the inode's table block on a cache
	// miss, and device operations must happen in a reproducible sequence.
	for _, ino := range sortedKeys(nil, v.inodes) {
		if in := v.inodes[ino]; in.hardDirty || in.softDirty {
			if err := v.flushInode(in); err != nil {
				return err
			}
		}
	}
	v.stageBitmap()
	return v.commit()
}

// Unmount implements fs.FileSystem.
func (v *FS) Unmount() error {
	if v.unmounted {
		return fs.ErrUnmounted
	}
	if err := v.Sync(); err != nil {
		return err
	}
	if err := v.checkpoint(); err != nil {
		return err
	}
	v.sb.state = stateClean
	if err := writeBlock(v.dev, 0, v.sb.encode(v.scratch)); err != nil {
		return err
	}
	if err := v.dev.Flush(); err != nil {
		return err
	}
	v.unmounted = true
	return nil
}

// SimulateCrash drops all in-memory state without checkpointing or marking
// the superblock clean, leaving the device exactly as a power cut would.
// The FS must be re-Mounted (triggering journal replay) to be used again.
func (v *FS) SimulateCrash() {
	v.unmounted = true
	v.inodes = nil
	v.meta = nil
	v.txn = nil
	v.pending = nil
	v.bitmap = nil
}

var _ fs.FileSystem = (*FS)(nil)
