package wtrace

import "flashwear/internal/fs"

// TagFS wraps a mounted file system so every mutating operation through
// it runs under org: the wrapper sets the tracer's ambient origin on the
// way in and restores the previous one on the way out, so nested layers
// (FS journaling, FTL relocations triggered mid-write) inherit the tag.
// Read-only operations pass through untouched — they cannot program NAND.
//
// Every tagged write path goes through it: the android sandbox (one view
// per app), fleet phones (the workload class) and the experiments'
// workload file sets.
func TagFS(inner fs.FileSystem, tr *Tracer, org Origin) fs.FileSystem {
	return &tagFS{inner: inner, tr: tr, org: org}
}

type tagFS struct {
	inner fs.FileSystem
	tr    *Tracer
	org   Origin
}

func (t *tagFS) Create(path string) (fs.File, error) {
	prev := t.tr.SetOrigin(t.org)
	f, err := t.inner.Create(path)
	t.tr.SetOrigin(prev)
	if err != nil {
		return nil, err
	}
	return &tagFile{inner: f, fs: t}, nil
}

func (t *tagFS) Open(path string) (fs.File, error) {
	f, err := t.inner.Open(path)
	if err != nil {
		return nil, err
	}
	return &tagFile{inner: f, fs: t}, nil
}

func (t *tagFS) Remove(path string) error {
	prev := t.tr.SetOrigin(t.org)
	err := t.inner.Remove(path)
	t.tr.SetOrigin(prev)
	return err
}

func (t *tagFS) Rename(oldPath, newPath string) error {
	prev := t.tr.SetOrigin(t.org)
	err := t.inner.Rename(oldPath, newPath)
	t.tr.SetOrigin(prev)
	return err
}

func (t *tagFS) Mkdir(path string) error {
	prev := t.tr.SetOrigin(t.org)
	err := t.inner.Mkdir(path)
	t.tr.SetOrigin(prev)
	return err
}

func (t *tagFS) ReadDir(path string) ([]fs.DirEntry, error) { return t.inner.ReadDir(path) }
func (t *tagFS) Stat(path string) (fs.FileInfo, error)      { return t.inner.Stat(path) }

func (t *tagFS) Sync() error {
	prev := t.tr.SetOrigin(t.org)
	err := t.inner.Sync()
	t.tr.SetOrigin(prev)
	return err
}

func (t *tagFS) Unmount() error {
	prev := t.tr.SetOrigin(t.org)
	err := t.inner.Unmount()
	t.tr.SetOrigin(prev)
	return err
}

func (t *tagFS) Name() string { return t.inner.Name() }

type tagFile struct {
	inner fs.File
	fs    *tagFS
}

func (f *tagFile) ReadAt(p []byte, off int64) (int, error) { return f.inner.ReadAt(p, off) }

func (f *tagFile) WriteAt(p []byte, off int64) (int, error) {
	prev := f.fs.tr.SetOrigin(f.fs.org)
	n, err := f.inner.WriteAt(p, off)
	f.fs.tr.SetOrigin(prev)
	return n, err
}

func (f *tagFile) Truncate(size int64) error {
	prev := f.fs.tr.SetOrigin(f.fs.org)
	err := f.inner.Truncate(size)
	f.fs.tr.SetOrigin(prev)
	return err
}

func (f *tagFile) Sync() error {
	prev := f.fs.tr.SetOrigin(f.fs.org)
	err := f.inner.Sync()
	f.fs.tr.SetOrigin(prev)
	return err
}

func (f *tagFile) Size() int64 { return f.inner.Size() }

func (f *tagFile) Close() error {
	prev := f.fs.tr.SetOrigin(f.fs.org)
	err := f.inner.Close()
	f.fs.tr.SetOrigin(prev)
	return err
}
