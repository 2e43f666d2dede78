package main

import (
	"os"

	"flashwear/internal/hostio"
)

// noSyncFS is hostio.OS with fsync turned into a no-op, exactly what a
// memory-backed file system makes of it.
type noSyncFS struct{ hostio.OS }

type noSyncFile struct{ hostio.File }

func (noSyncFile) Sync() error { return nil }

func noSync(f hostio.File, err error) (hostio.File, error) {
	if err != nil {
		return nil, err
	}
	return noSyncFile{f}, nil
}

func (fs noSyncFS) Create(name string) (hostio.File, error) { return noSync(fs.OS.Create(name)) }
func (fs noSyncFS) Open(name string) (hostio.File, error)   { return noSync(fs.OS.Open(name)) }
func (fs noSyncFS) OpenFile(name string, flag int, perm os.FileMode) (hostio.File, error) {
	return noSync(fs.OS.OpenFile(name, flag, perm))
}
