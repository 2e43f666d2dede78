// Package hostio is the host filesystem seam for the long-running
// services. Everything fleetd persists — checkpoint cells, campaign
// specs, event journals — goes through the FS interface instead of raw
// os.* calls, so the exact I/O surface the service depends on is
// enumerable and, more importantly, faultable: FaultFS (fault.go) wraps
// any FS with a seeded, deterministic fault plan in the
// faultinject.ParsePlan grammar style, injecting ENOSPC, EIO on write or
// sync, short (torn) writes, and rename failures at the Nth operation or
// per path class. This mirrors for the host disk what PR 3's
// internal/faultinject does for the simulated NAND: the paper's whole
// claim is that storage fails under sustained writes, and the harness
// that measures it should survive its own storage failing (DESIGN.md
// §13).
//
// The package is deliberately free of policy: it reports injected errors
// through ordinary error returns (wrapping ErrInjectedNoSpace /
// ErrInjectedIO) and leaves retry, degrade, and recovery decisions to
// the callers. It never reads the wall clock and never touches global
// randomness, but its ReadDir and Stat read host-filesystem metadata, so
// it is declared ops-domain: it is the seam, and each caller that lists a
// host directory says why with its own waiver.
package hostio

import (
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

//flashvet:ops-domain hostio is the host-I/O seam: its directory listings and file metadata serve the services' bookkeeping and never reach simulation results

// File is the handle surface the services use. *os.File implements it.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	// Name returns the name the file was opened with.
	Name() string
	// Sync flushes the file to stable storage.
	Sync() error
	// Truncate changes the size of the file.
	Truncate(size int64) error
	// Seek sets the offset for the next Read or Write.
	Seek(offset int64, whence int) (int64, error)
}

// FS is the host filesystem surface the services use. OS is the
// passthrough; FaultFS wraps any FS with deterministic fault injection.
// Implementations must be safe for concurrent use.
type FS interface {
	// Create creates or truncates the named file for writing.
	Create(name string) (File, error)
	// Open opens the named file for reading.
	Open(name string) (File, error)
	// OpenFile is the generalized open (os.OpenFile semantics).
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// Rename atomically renames oldpath to newpath.
	Rename(oldpath, newpath string) error
	// Remove removes the named file or empty directory.
	Remove(name string) error
	// MkdirAll creates the directory path and any missing parents.
	MkdirAll(path string, perm os.FileMode) error
	// ReadDir reads the named directory, sorted by filename.
	ReadDir(name string) ([]fs.DirEntry, error)
	// ReadFile reads the whole named file.
	ReadFile(name string) ([]byte, error)
	// WriteFile writes data to the named file, creating it if necessary.
	WriteFile(name string, data []byte, perm os.FileMode) error
	// Stat returns the FileInfo for the named file.
	Stat(name string) (fs.FileInfo, error)
}

// OS is the passthrough FS over the real host filesystem.
type OS struct{}

var _ FS = OS{}

func (OS) Create(name string) (File, error) { return os.Create(name) }
func (OS) Open(name string) (File, error)   { return os.Open(name) }
func (OS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}
func (OS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (OS) Remove(name string) error                     { return os.Remove(name) }
func (OS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (OS) ReadDir(name string) ([]fs.DirEntry, error)   { return os.ReadDir(name) }
func (OS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (OS) WriteFile(name string, data []byte, perm os.FileMode) error {
	return os.WriteFile(name, data, perm)
}
func (OS) Stat(name string) (fs.FileInfo, error) { return os.Stat(name) }

// Path classes scope fault clauses to the artifact kind a path belongs
// to, so a plan can break checkpoint writes while the journal stays
// healthy (or vice versa). Classification is by basename convention —
// the same conventions the fleetd data layout uses.
const (
	ClassCheckpoint = "checkpoint" // *.ckpt and their *.ckpt.tmp staging twins
	ClassJournal    = "journal"    // *.jsonl event journals
	ClassSpec       = "spec"       // campaign.json spec records
	ClassOther      = "other"      // everything else (directories, logs, ...)
	ClassAll        = "all"        // clause scope only: matches every class
)

// Classify maps a path to its fault class.
func Classify(path string) string {
	base := filepath.Base(path)
	switch {
	case strings.HasSuffix(base, ".ckpt"), strings.HasSuffix(base, ".ckpt.tmp"):
		return ClassCheckpoint
	case strings.HasSuffix(base, ".jsonl"):
		return ClassJournal
	case base == "campaign.json":
		return ClassSpec
	default:
		return ClassOther
	}
}
