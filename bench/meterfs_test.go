package main

import (
	"bytes"
	iofs "io/fs"
	"os"
	"path/filepath"
	"testing"

	"flashwear/internal/fleetd"
	"flashwear/internal/hostio"
)

// campaignOn runs a small checkpointed campaign to completion through fsys
// and returns its fingerprint bytes with every file it left, by path
// relative to the data directory.
func campaignOn(t *testing.T, fsys hostio.FS) ([]byte, map[string][]byte) {
	t.Helper()
	dir := t.TempDir()
	mgr, err := fleetd.NewManagerOpts(fleetd.Options{DataDir: dir, FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	// One worker: with two, device frames land in a cell in the order the
	// workers finish, and cell bytes (not results) depend on the schedule.
	c, err := mgr.Submit(fleetd.CampaignSpec{
		Devices: 6, Days: 3, Seed: 4, Scale: 4096, WearTrace: true,
		Shards: 2, Workers: 1, CheckpointEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	print, err := campaignPrint(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Journal().Close(); err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	err = filepath.WalkDir(dir, func(path string, d iofs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		files[rel], err = os.ReadFile(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return print, files
}

// A campaign run through meterFS must be the campaign run through the
// passthrough: same results, same cell bytes; and what meterFS says was
// written is what is on disk.
func TestMeterFSTransparent(t *testing.T) {
	wantPrint, wantFiles := campaignOn(t, hostio.OS{})
	meter := newMeterFS(hostio.OS{}, nil)
	gotPrint, gotFiles := campaignOn(t, meter)

	if !bytes.Equal(gotPrint, wantPrint) {
		t.Errorf("campaign through meterFS has different series/ledger/aggregate")
	}
	cells := 0
	onDisk := map[string]int64{}
	for path, want := range wantFiles {
		got, ok := gotFiles[path]
		if !ok {
			t.Errorf("meterFS run left no %s", path)
			continue
		}
		class := hostio.Classify(path)
		onDisk[class] += int64(len(got))
		if class == hostio.ClassCheckpoint {
			cells++
			if !bytes.Equal(got, want) {
				t.Errorf("cell %s differs between the meterFS run and the passthrough run", path)
			}
		}
	}
	if len(gotFiles) != len(wantFiles) {
		t.Errorf("meterFS run left %d files, passthrough run %d", len(gotFiles), len(wantFiles))
	}
	if cells != 2*3 {
		t.Errorf("%d cells on disk, want shards x epochs = 6", cells)
	}
	for _, class := range []string{hostio.ClassCheckpoint, hostio.ClassJournal, hostio.ClassSpec} {
		if got := meter.Class(class).BytesWritten; got != onDisk[class] || got == 0 {
			t.Errorf("meterFS counted %d %s bytes written, the files on disk hold %d", got, class, onDisk[class])
		}
	}
	ck := meter.Class(hostio.ClassCheckpoint)
	if ck.Syncs != int64(cells) || ck.Renames != int64(cells) {
		t.Errorf("meterFS counted %d fsyncs and %d renames for %d cells, want one each", ck.Syncs, ck.Renames, cells)
	}
	if ck.BytesRead == 0 {
		t.Errorf("meterFS saw no checkpoint reads, but every epoch after the first loads the previous cell")
	}
}
