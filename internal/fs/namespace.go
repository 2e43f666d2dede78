package fs

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// Both file systems keep a directory's entries as its content: fixed
// DirentSize-byte slots, back to back, each the entry's node id (u32, 0
// for a free slot), its name length (u8) and its name. The namespace
// below — path lookup and every FileSystem operation but Sync and
// Unmount — is written once over that format; a file system supplies
// only its node and slot I/O, as a Nodes.

// DirentSize is the size of one directory slot.
const DirentSize = 256

// direntName is the offset of a slot's name.
const direntName = 5

// Dirent encodes the slot naming node id name. name must fit the slot
// (CheckName's names do).
func Dirent(id uint32, name string) (slot [DirentSize]byte) {
	binary.LittleEndian.PutUint32(slot[:], id)
	slot[4] = byte(len(name))
	copy(slot[direntName:], name)
	return slot
}

// ParseDirent decodes a slot, which holds at least DirentSize bytes: its
// node id, and for an id other than 0 its name, which lies inside the
// slot. ok is false when the id is not 0 and the name length runs past
// the slot: the volume is corrupt.
func ParseDirent(slot []byte) (id uint32, name []byte, ok bool) {
	id = binary.LittleEndian.Uint32(slot)
	if id == 0 {
		return 0, nil, true
	}
	n := direntName + int(slot[4])
	if n > DirentSize {
		return id, nil, false
	}
	return id, slot[direntName:n], true
}

// Nodes is a file system's node and directory-slot I/O, as the namespace
// uses it, with the file content I/O its files are opened over. N is its
// in-memory node; two Ns are equal exactly when they are the same node.
// The namespace calls the hooks in the order the file system's device I/O
// must happen in, and passes them no closures.
type Nodes[N comparable] interface {
	Content[N]
	// Root loads the root directory.
	Root() (N, error)
	// Load loads the node with the given id.
	Load(id uint32) (N, error)
	IsDir(n N) bool
	// Scan readies directory dir's slots for Slot.
	Scan(dir N) error
	// Slot returns the slot at byte offset off of the directory Scan last
	// readied, valid until the next Scan or write.
	Slot(dir N, off int64) ([]byte, error)
	// Set points the slot at off — within dir, or at its end, which grows
	// it — at n under name.
	Set(dir N, off int64, n N, name string) error
	// Unlink frees the slot at off.
	Unlink(dir N, off int64) error
	// Alloc writes a new, empty directory or regular file.
	Alloc(dir bool) (N, error)
	// Release frees n and everything it holds.
	Release(n N) error
	// Done makes the operation durable.
	Done() error
	// Corrupt is the error a corrupt volume's errors wrap.
	Corrupt() error
}

// Create implements FileSystem.Create over h.
func Create[N comparable](h Nodes[N], path string) (File, error) {
	if err := h.Alive(); err != nil {
		return nil, err
	}
	dir, name, err := resolveParent(h, path)
	if err != nil {
		return nil, err
	}
	if _, id, err := find(h, dir, name); err != nil {
		return nil, err
	} else if id != 0 {
		n, err := h.Load(id)
		if err != nil {
			return nil, err
		}
		if h.IsDir(n) {
			return nil, ErrIsDir
		}
		f := OpenFile(h, n)
		if err := f.Truncate(0); err != nil {
			return nil, err
		}
		return f, nil
	}
	n, err := mknod(h, dir, name, false)
	if err != nil {
		return nil, err
	}
	return OpenFile(h, n), nil
}

// Open implements FileSystem.Open over h.
func Open[N comparable](h Nodes[N], path string) (File, error) {
	if err := h.Alive(); err != nil {
		return nil, err
	}
	n, err := resolve(h, path)
	if err != nil {
		return nil, err
	}
	if h.IsDir(n) {
		return nil, ErrIsDir
	}
	return OpenFile(h, n), nil
}

// Mkdir implements FileSystem.Mkdir over h.
func Mkdir[N comparable](h Nodes[N], path string) error {
	if err := h.Alive(); err != nil {
		return err
	}
	dir, name, err := resolveParent(h, path)
	if err != nil {
		return err
	}
	if _, id, err := find(h, dir, name); err != nil {
		return err
	} else if id != 0 {
		return ErrExist
	}
	_, err = mknod(h, dir, name, true)
	return err
}

// Remove implements FileSystem.Remove over h.
func Remove[N comparable](h Nodes[N], path string) error {
	if err := h.Alive(); err != nil {
		return err
	}
	dir, name, err := resolveParent(h, path)
	if err != nil {
		return err
	}
	off, id, err := find(h, dir, name)
	if err != nil {
		return err
	}
	if id == 0 {
		return ErrNotExist
	}
	n, err := h.Load(id)
	if err != nil {
		return err
	}
	if h.IsDir(n) {
		if empty, err := isEmpty(h, n); err != nil {
			return err
		} else if !empty {
			return ErrNotEmpty
		}
	}
	if err := h.Release(n); err != nil {
		return err
	}
	if err := h.Unlink(dir, off); err != nil {
		return err
	}
	return h.Done()
}

// Rename implements FileSystem.Rename over h: it replaces a regular file
// at the target, and the file system's Done makes the move durable.
func Rename[N comparable](h Nodes[N], oldPath, newPath string) error {
	if err := h.Alive(); err != nil {
		return err
	}
	oldDir, oldName, err := resolveParent(h, oldPath)
	if err != nil {
		return err
	}
	oldOff, id, err := find(h, oldDir, oldName)
	if err != nil {
		return err
	}
	if id == 0 {
		return ErrNotExist
	}
	moving, err := h.Load(id)
	if err != nil {
		return err
	}
	newDir, newName, err := resolveParent(h, newPath)
	if err != nil {
		return err
	}
	newOff, existing, err := find(h, newDir, newName)
	if err != nil {
		return err
	}
	if existing == id {
		return nil // rename onto itself
	}
	if existing != 0 {
		target, err := h.Load(existing)
		if err != nil {
			return err
		}
		if h.IsDir(target) {
			return ErrIsDir
		}
		if h.IsDir(moving) {
			return ErrNotDir
		}
		if err := h.Release(target); err != nil {
			return err
		}
		if err := h.Set(newDir, newOff, moving, newName); err != nil {
			return err
		}
	} else {
		if err := add(h, newDir, moving, newName); err != nil {
			return err
		}
		// The new entry may have taken a slot or grown the directory the
		// old one is in: find the old one again.
		if newDir == oldDir {
			if oldOff, id, err = find(h, oldDir, oldName); err != nil || id == 0 {
				return fmt.Errorf("%w: rename lost source entry", h.Corrupt())
			}
		}
	}
	if err := h.Unlink(oldDir, oldOff); err != nil {
		return err
	}
	return h.Done()
}

// ReadDir implements FileSystem.ReadDir over h.
func ReadDir[N comparable](h Nodes[N], path string) ([]DirEntry, error) {
	if err := h.Alive(); err != nil {
		return nil, err
	}
	dir, err := resolve(h, path)
	if err != nil {
		return nil, err
	}
	if !h.IsDir(dir) {
		return nil, ErrNotDir
	}
	if err := h.Scan(dir); err != nil {
		return nil, err
	}
	var out []DirEntry
	for off := int64(0); off+DirentSize <= h.Size(dir); off += DirentSize {
		id, name, err := slot(h, dir, off)
		if err != nil {
			return nil, err
		}
		if id == 0 {
			continue
		}
		e := DirEntry{Name: string(name)}
		child, err := h.Load(id)
		if err != nil {
			return nil, err
		}
		e.IsDir = h.IsDir(child)
		out = append(out, e)
	}
	return out, nil
}

// Stat implements FileSystem.Stat over h.
func Stat[N comparable](h Nodes[N], path string) (FileInfo, error) {
	if err := h.Alive(); err != nil {
		return FileInfo{}, err
	}
	n, err := resolve(h, path)
	if err != nil {
		return FileInfo{}, err
	}
	name := path
	if i := strings.LastIndexByte(strings.TrimRight(path, "/"), '/'); i >= 0 {
		name = strings.TrimRight(path, "/")[i+1:]
	}
	return FileInfo{Name: name, Size: h.Size(n), IsDir: h.IsDir(n)}, nil
}

// resolve walks a path to its node.
func resolve[N comparable](h Nodes[N], path string) (n N, err error) {
	if path, err = cleanPath(path); err != nil {
		return n, err
	}
	if n, err = h.Root(); err != nil {
		return n, err
	}
	for rest := path; rest != ""; {
		var name string
		name, rest, _ = strings.Cut(rest, "/")
		if !h.IsDir(n) {
			return n, ErrNotDir
		}
		_, id, err := find(h, n, name)
		if err != nil {
			return n, err
		}
		if id == 0 {
			return n, ErrNotExist
		}
		if n, err = h.Load(id); err != nil {
			return n, err
		}
	}
	return n, nil
}

// resolveParent returns the directory a path names an entry of, and the
// entry's name.
func resolveParent[N comparable](h Nodes[N], path string) (dir N, name string, err error) {
	parent, name, err := DirBase(path)
	if err != nil {
		return dir, "", err
	}
	if dir, err = resolve(h, parent); err != nil {
		return dir, "", err
	}
	if !h.IsDir(dir) {
		return dir, "", ErrNotDir
	}
	return dir, name, nil
}

// mknod writes a new node and links it into dir under name.
func mknod[N comparable](h Nodes[N], dir N, name string, isDir bool) (N, error) {
	n, err := h.Alloc(isDir)
	if err != nil {
		return n, err
	}
	if err := add(h, dir, n, name); err != nil {
		return n, err
	}
	return n, h.Done()
}

// slot reads and decodes the slot at off of the directory h last scanned.
func slot[N comparable](h Nodes[N], dir N, off int64) (uint32, []byte, error) {
	b, err := h.Slot(dir, off)
	if err != nil {
		return 0, nil, err
	}
	id, name, ok := ParseDirent(b)
	if !ok {
		return 0, nil, fmt.Errorf("%w: dirent name length %d", h.Corrupt(), b[4])
	}
	return id, name, nil
}

// find looks name up in dir, returning its slot's offset and its node's
// id, or id 0.
func find[N comparable](h Nodes[N], dir N, name string) (off int64, id uint32, err error) {
	if err := h.Scan(dir); err != nil {
		return -1, 0, err
	}
	for off := int64(0); off+DirentSize <= h.Size(dir); off += DirentSize {
		id, slotName, err := slot(h, dir, off)
		if err != nil {
			return -1, 0, err
		}
		if id != 0 && string(slotName) == name {
			return off, id, nil
		}
	}
	return -1, 0, nil
}

// add links n into dir under name, in its first free slot or else a new
// one at its end.
func add[N comparable](h Nodes[N], dir, n N, name string) error {
	if err := h.Scan(dir); err != nil {
		return err
	}
	free := h.Size(dir)
	for off := int64(0); off+DirentSize <= h.Size(dir); off += DirentSize {
		id, _, err := slot(h, dir, off)
		if err != nil {
			return err
		}
		if id == 0 {
			free = off
			break
		}
	}
	return h.Set(dir, free, n, name)
}

// isEmpty reports whether directory dir has no entries.
func isEmpty[N comparable](h Nodes[N], dir N) (bool, error) {
	if err := h.Scan(dir); err != nil {
		return false, err
	}
	for off := int64(0); off+DirentSize <= h.Size(dir); off += DirentSize {
		id, _, err := slot(h, dir, off)
		if err != nil || id != 0 {
			return false, err
		}
	}
	return true, nil
}
