package workload

import (
	"errors"
	"fmt"

	"flashwear/internal/fs"
	"flashwear/internal/simrand"
)

// FileSet is the paper's attack workload: a handful of files in a private
// directory, rewritten at random offsets in small synchronous requests.
// §4.3: "four 100MB files"; §4.4: "continuously rewrites 100MB files in the
// application's private storage area".
type FileSet struct {
	FS       fs.FileSystem
	Dir      string
	NumFiles int
	FileSize int64
	// ReqBytes is the rewrite request size (4 KiB in the paper).
	ReqBytes int64
	// SyncEvery issues fsync after this many rewrites (1 = O_SYNC).
	SyncEvery int

	files  []fs.File
	paths  []string // the files' names, built by the first Reattach
	rng    *simrand.Rand
	writes int
	buf    []byte
}

// zeroChunk is what Setup fills files with; nothing writes to it.
var zeroChunk [256 << 10]byte

// NewFileSet returns an unopened file set with the paper's defaults filled
// in for zero fields: 4 files, 4 KiB requests, sync every write.
func NewFileSet(fsys fs.FileSystem, dir string, fileSize int64, seed int64) *FileSet {
	return &FileSet{
		FS: fsys, Dir: dir, NumFiles: 4, FileSize: fileSize,
		ReqBytes: 4096, SyncEvery: 1,
		rng: simrand.New(seed),
	}
}

// Setup creates the directory and pre-sizes the files (an initial
// sequential fill, as the real app must do before it can rewrite).
func (s *FileSet) Setup() error {
	if s.NumFiles <= 0 || s.FileSize < s.ReqBytes || s.ReqBytes <= 0 {
		return fmt.Errorf("workload: fileset: bad geometry files=%d size=%d req=%d",
			s.NumFiles, s.FileSize, s.ReqBytes)
	}
	if s.Dir != "/" && s.Dir != "" {
		if err := s.FS.Mkdir(s.Dir); err != nil && !errors.Is(err, fs.ErrExist) {
			return err
		}
	}
	s.buf = make([]byte, s.ReqBytes)
	// Fill sequentially in 256 KiB chunks of zeroes, one for every file
	// of every set: a file system's WriteAt does not modify p.
	chunk := zeroChunk[:]
	for i := 0; i < s.NumFiles; i++ {
		f, err := s.FS.Create(fmt.Sprintf("%s/wear%02d.dat", s.Dir, i))
		if err != nil {
			return err
		}
		for off := int64(0); off < s.FileSize; off += int64(len(chunk)) {
			n := int64(len(chunk))
			if off+n > s.FileSize {
				n = s.FileSize - off
			}
			if _, err := f.WriteAt(chunk[:n], off); err != nil {
				return err
			}
		}
		if err := f.Sync(); err != nil {
			return err
		}
		s.files = append(s.files, f)
	}
	return nil
}

// TotalBytes returns the footprint of the file set — under 3% of the
// device in the paper's configuration.
func (s *FileSet) TotalBytes() int64 { return int64(s.NumFiles) * s.FileSize }

// Step rewrites random regions until about budget bytes have been written
// (at least one request), returning the bytes written.
func (s *FileSet) Step(budget int64) (int64, error) {
	if len(s.files) == 0 {
		return 0, fmt.Errorf("workload: fileset: Setup not called")
	}
	var written int64
	for written == 0 || written+s.ReqBytes <= budget {
		f := s.files[s.rng.Intn(len(s.files))]
		slots := s.FileSize / s.ReqBytes
		off := s.rng.Int63n(slots) * s.ReqBytes
		if _, err := f.WriteAt(s.buf, off); err != nil {
			return written, err
		}
		written += s.ReqBytes
		s.writes++
		if s.SyncEvery > 0 && s.writes%s.SyncEvery == 0 {
			if err := f.Sync(); err != nil {
				return written, err
			}
		}
	}
	return written, nil
}

// Reseed restarts the offset RNG at seed, in place: the offsets that
// follow are those of a set built with that seed. Checkpoint-resume
// reboots the set each simulated day and reseeds from (device seed, day),
// so the rewrite offset stream is a pure function of the resume point
// rather than of how many draws the previous process had consumed.
func (s *FileSet) Reseed(seed int64) { s.rng.Seed(seed) }

// Writes returns the cumulative rewrite count (the SyncEvery phase).
func (s *FileSet) Writes() int { return s.writes }

// Restore marks the set as initialised without re-filling the files —
// the resume counterpart of Setup, for a set whose files already exist on
// the (recovered) file system. writes restores the rewrite counter so the
// SyncEvery phase continues where it left off. Call before Reattach.
func (s *FileSet) Restore(writes int) {
	if int64(len(s.buf)) != s.ReqBytes {
		s.buf = make([]byte, s.ReqBytes)
	}
	s.writes = writes
}

// Reattach re-opens the set's files by path on fsys — used after a crash
// or power-loss remount invalidates the previous mount's handles. A file
// whose creation did not survive the crash (the cut landed mid-Setup) is
// recreated empty; no refill is needed, because WriteAt extends short
// files on demand and the rewrite workload never reads its own data.
func (s *FileSet) Reattach(fsys fs.FileSystem) error {
	if s.buf == nil {
		return fmt.Errorf("workload: fileset: Setup not called")
	}
	s.FS = fsys
	if len(s.paths) != s.NumFiles {
		s.paths = make([]string, s.NumFiles)
		for i := range s.paths {
			s.paths[i] = fmt.Sprintf("%s/wear%02d.dat", s.Dir, i)
		}
	}
	// The previous mount's handles are dead; their slots take the new ones.
	files := s.files[:0]
	for _, path := range s.paths {
		f, err := fsys.Open(path)
		if errors.Is(err, fs.ErrNotExist) {
			if s.Dir != "/" && s.Dir != "" {
				if err := fsys.Mkdir(s.Dir); err != nil && !errors.Is(err, fs.ErrExist) {
					return fmt.Errorf("workload: fileset: reattach: %w", err)
				}
			}
			f, err = fsys.Create(path)
		}
		if err != nil {
			return fmt.Errorf("workload: fileset: reattach %s: %w", path, err)
		}
		files = append(files, f)
	}
	s.files = files
	return nil
}

// Close closes the files.
func (s *FileSet) Close() error {
	for _, f := range s.files {
		if err := f.Close(); err != nil {
			return err
		}
	}
	s.files = nil
	return nil
}
