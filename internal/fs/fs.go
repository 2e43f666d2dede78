// Package fs defines the file-system abstraction the Android environment
// and the wear experiments run on, implemented by the ext4-like journaling
// file system (package extfs) and the F2FS-like log-structured file system
// (package f2fs). The interface is deliberately small: the paper's workloads
// only create, rewrite, sync, and delete files.
package fs

import "errors"

// Common file-system errors.
var (
	ErrNotExist  = errors.New("fs: file does not exist")
	ErrExist     = errors.New("fs: file already exists")
	ErrIsDir     = errors.New("fs: is a directory")
	ErrNotDir    = errors.New("fs: not a directory")
	ErrNotEmpty  = errors.New("fs: directory not empty")
	ErrNoSpace   = errors.New("fs: no space left on device")
	ErrReadOnly  = errors.New("fs: read-only file system")
	ErrBadName   = errors.New("fs: invalid file name")
	ErrTooLarge  = errors.New("fs: file too large")
	ErrUnmounted = errors.New("fs: file system unmounted")
)

// FileSystem is a mounted file system.
type FileSystem interface {
	// Create creates (or truncates) a regular file.
	Create(path string) (File, error)
	// Open opens an existing regular file.
	Open(path string) (File, error)
	// Remove deletes a file or empty directory.
	Remove(path string) error
	// Rename moves a file to a new path, atomically replacing an existing
	// regular file at the target — the crash-safe update idiom.
	Rename(oldPath, newPath string) error
	// Mkdir creates a directory.
	Mkdir(path string) error
	// ReadDir lists a directory.
	ReadDir(path string) ([]DirEntry, error)
	// Stat describes a file.
	Stat(path string) (FileInfo, error)
	// Sync flushes all dirty state and issues a device barrier.
	Sync() error
	// Unmount syncs and detaches; further operations fail.
	Unmount() error
	// Name identifies the FS type ("extfs", "f2fs").
	Name() string
}

// File is an open regular file.
type File interface {
	// ReadAt reads len(p) bytes at off. Reads beyond EOF are truncated;
	// n < len(p) with a nil error signals EOF, like io.ReaderAt allows
	// for deterministic files.
	ReadAt(p []byte, off int64) (n int, err error)
	// WriteAt writes len(p) bytes at off, extending the file if needed.
	WriteAt(p []byte, off int64) (n int, err error)
	// Truncate changes the file size.
	Truncate(size int64) error
	// Sync persists the file's data and metadata (fsync).
	Sync() error
	// Size returns the current size.
	Size() int64
	// Close releases the handle.
	Close() error
}

// FileInfo describes a file.
type FileInfo struct {
	Name  string
	Size  int64
	IsDir bool
}

// DirEntry is one directory listing entry.
type DirEntry struct {
	Name  string
	IsDir bool
}

// Options are mount options shared by the implementations.
type Options struct {
	// DataAccounting discards file *content* payloads: data blocks are
	// written to the device as accounting-only I/O (wear and timing,
	// no bytes retained) and read back as zeroes. Metadata is always
	// real. The device-scale wear experiments mount with this on so
	// simulating terabytes of writes does not hold terabytes of RAM.
	DataAccounting bool
}
