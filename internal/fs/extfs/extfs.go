package extfs

import (
	"encoding/binary"
	"fmt"

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
	// dirBlks holds the blocks of the directory names.Scan read last.
	dirBlks [][]byte

	jHead uint32
	jSeq  uint64

	// gen numbers the mounts an FS has been through; a file handle works
	// only in the mount that opened it.
	gen        uint32
	unmounted  bool
	nowCounter int64

	statJournalCommits   int64
	statJournalBlocks    int64
	statCheckpointWrites int64
	statDataBlocks       int64
	statReplayedTxns     int
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
	if err := writePrefix(dev, sb.jStart, journalSuper{seq: 1}.encode(buf), jsupLen); err != nil {
		return err
	}
	if err := writePrefix(dev, 0, sb.encode(buf), sbLen); err != nil {
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
	if err := writePrefix(dev, 0, sb.encode(v.scratch), sbLen); err != nil {
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

// --- the namespace ---

// names is the FS as the shared namespace and file handle (fs.Nodes)
// see it: inodes, directory slots in blocks read through the metadata
// cache, and file content in blocks the inode maps (file.go).
type names FS

func (h *names) Alive() error                    { return (*FS)(h).alive() }
func (h *names) Root() (*inode, error)           { return (*FS)(h).loadInode(RootIno) }
func (h *names) Load(ino uint32) (*inode, error) { return (*FS)(h).loadInode(ino) }
func (*names) IsDir(in *inode) bool              { return in.mode == modeDir }
func (*names) Size(in *inode) int64              { return in.size }
func (h *names) Done() error                     { return (*FS)(h).commit() }
func (*names) Corrupt() error                    { return ErrCorrupt }

// Scan reads every block of dir, before any of its slots is looked at.
func (h *names) Scan(dir *inode) error {
	v := (*FS)(h)
	nblk := (dir.size + BlockSize - 1) / BlockSize
	v.dirBlks = v.dirBlks[:0]
	for i := int64(0); i < nblk; i++ {
		blk, err := v.bmap(dir, i, false)
		if err != nil {
			return err
		}
		if blk == 0 {
			return fmt.Errorf("%w: hole in directory %d", ErrCorrupt, dir.ino)
		}
		b, err := v.readMeta(blk)
		if err != nil {
			return err
		}
		v.dirBlks = append(v.dirBlks, b)
	}
	return nil
}

// Slot returns the slot at off where Scan's blocks hold it: slots never
// straddle a block.
func (h *names) Slot(_ *inode, off int64) ([]byte, error) {
	return h.dirBlks[off/BlockSize][off%BlockSize:], nil
}

func (h *names) Set(dir *inode, off int64, in *inode, name string) error {
	return (*FS)(h).dirSet(dir, off, in.ino, name)
}

// Unlink frees the slot and stages the bitmap, which Remove and Rename
// may have freed blocks in.
func (h *names) Unlink(dir *inode, off int64) error {
	v := (*FS)(h)
	if err := v.dirSet(dir, off, 0, ""); err != nil {
		return err
	}
	v.stageBitmap()
	return nil
}

func (h *names) Alloc(dir bool) (*inode, error) {
	v := (*FS)(h)
	mode := uint16(modeFile)
	if dir {
		mode = modeDir
	}
	in, err := v.allocInode(mode)
	if err != nil {
		return nil, err
	}
	return in, v.flushInode(in)
}

func (h *names) Release(in *inode) error {
	v := (*FS)(h)
	if err := v.truncateInode(in, 0); err != nil {
		return err
	}
	in.mode = modeFree
	in.hardDirty = true
	if err := v.flushInode(in); err != nil {
		return err
	}
	delete(v.inodes, in.ino)
	return nil
}

// dirSet writes one slot at off (which must be slot-aligned and within or
// exactly at the end of the directory), growing it if needed.
func (v *FS) dirSet(in *inode, off int64, ino uint32, name string) error {
	blk, err := v.bmap(in, off/BlockSize, true)
	if err != nil {
		return err
	}
	b := make([]byte, BlockSize)
	if off < in.size || off%BlockSize != 0 {
		cur, err := v.readMeta(blk)
		if err != nil {
			return err
		}
		copy(b, cur)
	}
	e := fs.Dirent(ino, name)
	copy(b[off%BlockSize:], e[:])
	v.stageMeta(blk, b)
	if off+fs.DirentSize > in.size {
		in.size = off + fs.DirentSize
		in.hardDirty = true
	}
	in.mtime = v.nowNanos()
	return v.flushInode(in)
}

// Create implements fs.FileSystem.
func (v *FS) Create(path string) (fs.File, error) { return fs.Create((*names)(v), path) }

// Open implements fs.FileSystem.
func (v *FS) Open(path string) (fs.File, error) { return fs.Open((*names)(v), path) }

// Mkdir implements fs.FileSystem.
func (v *FS) Mkdir(path string) error { return fs.Mkdir((*names)(v), path) }

// Remove implements fs.FileSystem.
func (v *FS) Remove(path string) error { return fs.Remove((*names)(v), path) }

// Rename implements fs.FileSystem: the entry moves in one journal
// transaction.
func (v *FS) Rename(oldPath, newPath string) error {
	return fs.Rename((*names)(v), oldPath, newPath)
}

// ReadDir implements fs.FileSystem.
func (v *FS) ReadDir(path string) ([]fs.DirEntry, error) { return fs.ReadDir((*names)(v), path) }

// Stat implements fs.FileSystem.
func (v *FS) Stat(path string) (fs.FileInfo, error) { return fs.Stat((*names)(v), path) }

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
	if err := writePrefix(v.dev, 0, v.sb.encode(v.scratch), sbLen); err != nil {
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
