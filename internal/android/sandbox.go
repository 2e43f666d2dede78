package android

import "flashwear/internal/fs"

// sandboxFS is the view an app gets of storage: its private directory,
// reachable with no permissions at all (§4.4: "our application required no
// special permissions"), with every operation accounted to the app. When
// wear tracing is on, fsys is a wtrace.TagFS under the app's origin, so
// the wear its mutating operations cause is attributed to the app.
type sandboxFS struct {
	phone *Phone
	rec   *appRecord
	root  string        // e.g. "/data/com.example.wear"
	fsys  fs.FileSystem // the phone's file system, as the app writes to it
}

func (s *sandboxFS) path(p string) string { return s.root + "/" + trimSlashes(p) }

func trimSlashes(p string) string {
	for len(p) > 0 && p[0] == '/' {
		p = p[1:]
	}
	return p
}

// Name implements fs.FileSystem.
func (s *sandboxFS) Name() string { return s.fsys.Name() }

// Create implements fs.FileSystem.
func (s *sandboxFS) Create(path string) (fs.File, error) {
	f, err := s.fsys.Create(s.path(path))
	if err != nil {
		return nil, err
	}
	return &sandboxFile{File: f, phone: s.phone, rec: s.rec}, nil
}

// Open implements fs.FileSystem.
func (s *sandboxFS) Open(path string) (fs.File, error) {
	f, err := s.fsys.Open(s.path(path))
	if err != nil {
		return nil, err
	}
	return &sandboxFile{File: f, phone: s.phone, rec: s.rec}, nil
}

// Remove implements fs.FileSystem.
func (s *sandboxFS) Remove(path string) error { return s.fsys.Remove(s.path(path)) }

// Rename implements fs.FileSystem; both paths are confined to the sandbox.
func (s *sandboxFS) Rename(oldPath, newPath string) error {
	return s.fsys.Rename(s.path(oldPath), s.path(newPath))
}

// Mkdir implements fs.FileSystem.
func (s *sandboxFS) Mkdir(path string) error { return s.fsys.Mkdir(s.path(path)) }

// ReadDir implements fs.FileSystem.
func (s *sandboxFS) ReadDir(path string) ([]fs.DirEntry, error) {
	return s.fsys.ReadDir(s.path(path))
}

// Stat implements fs.FileSystem.
func (s *sandboxFS) Stat(path string) (fs.FileInfo, error) {
	return s.fsys.Stat(s.path(path))
}

// Sync implements fs.FileSystem. The whole-FS sync flushes metadata the
// app dirtied, so it is charged to the app.
func (s *sandboxFS) Sync() error {
	s.phone.accountSync(s.rec)
	return s.fsys.Sync()
}

// Unmount is not permitted from a sandbox.
func (s *sandboxFS) Unmount() error { return fs.ErrReadOnly }

// sandboxFile wraps a file with per-app accounting and monitor hooks.
type sandboxFile struct {
	fs.File
	phone *Phone
	rec   *appRecord
}

// WriteAt implements fs.File.
func (f *sandboxFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := f.File.WriteAt(p, off)
	if n > 0 {
		f.phone.accountWrite(f.rec, int64(n))
	}
	return n, err
}

// ReadAt implements fs.File.
func (f *sandboxFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	if n > 0 {
		f.phone.accountRead(f.rec, int64(n))
	}
	return n, err
}

// Sync implements fs.File.
func (f *sandboxFile) Sync() error {
	f.phone.accountSync(f.rec)
	return f.File.Sync()
}

var _ fs.FileSystem = (*sandboxFS)(nil)
var _ fs.File = (*sandboxFile)(nil)
