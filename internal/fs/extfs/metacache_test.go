package extfs

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"flashwear/internal/fs"
)

// TestMetaCacheHoldsNewestImage pins what readMeta relies on: after every
// op of a mixed script, the cache entry of every non-bitmap block the
// running transaction holds is that very slice, and so is the entry of
// every block only journaled state holds. A 1 MiB volume has an 8-block
// journal, so the script also goes through checkpoints and transactions
// written home directly.
func TestMetaCacheHoldsNewestImage(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			v, _ := newVolume(t, 1+seed%2*3, fs.Options{})
			checkMetaCache(t, v, "mkfs")
			rng := rand.New(rand.NewSource(seed))
			dirs := []string{"", "/d0", "/d1"}
			open := map[string]fs.File{}
			path := func() string {
				return fmt.Sprintf("%s/f%d", dirs[rng.Intn(len(dirs))], rng.Intn(5))
			}
			// pick returns an open file, or nil while none is open.
			pick := func() fs.File {
				ps := sortedPaths(open)
				if len(ps) == 0 {
					return nil
				}
				return open[ps[rng.Intn(len(ps))]]
			}
			for op := range 400 {
				var what string
				var err error
				switch k := rng.Intn(10); k {
				case 0:
					what = "mkdir"
					err = v.Mkdir(dirs[1+rng.Intn(2)])
				case 1, 2:
					what = "create"
					var f fs.File
					p := path()
					if f, err = v.Create(p); err == nil {
						open[p] = f
					}
				case 3, 4:
					what = "write"
					if f := pick(); f != nil {
						blocks := 1 + rng.Intn(NDirect+3)
						off := int64(rng.Intn(NDirect+2)) * BlockSize
						_, err = f.WriteAt(bytes.Repeat([]byte{byte(op)}, blocks*BlockSize), off)
					}
				case 5:
					what = "truncate"
					if f := pick(); f != nil {
						err = f.Truncate(int64(rng.Intn(NDirect+4)) * BlockSize)
					}
				case 6:
					what = "remove"
					p := path()
					err = v.Remove(p)
					delete(open, p)
				case 7:
					what = "rename"
					from, to := path(), path()
					if err = v.Rename(from, to); err == nil && from != to {
						delete(open, from)
						delete(open, to)
					}
				case 8:
					what = "file sync"
					if f := pick(); f != nil {
						err = f.Sync()
					}
				case 9:
					what = "sync"
					err = v.Sync()
				}
				if err != nil && !errors.Is(err, fs.ErrNotExist) && !errors.Is(err, fs.ErrExist) && !errors.Is(err, fs.ErrNoSpace) {
					t.Fatalf("op %d (%s): %v", op, what, err)
				}
				checkMetaCache(t, v, fmt.Sprintf("op %d (%s)", op, what))
			}
			if st := v.Stats(); st.JournalCommits == 0 || st.CheckpointWrites == 0 {
				t.Fatalf("script made %d commits and %d checkpoint writes, want both > 0", st.JournalCommits, st.CheckpointWrites)
			}
		})
	}
}

// checkMetaCache fails the test unless meta holds the very slice txn, else
// pending, holds for every non-bitmap block.
func checkMetaCache(t *testing.T, v *FS, after string) {
	t.Helper()
	check := func(where string, m map[uint32][]byte, skip map[uint32][]byte) {
		for blk, b := range m {
			if _, ok := skip[blk]; ok || blk >= v.sb.bitmapStart && blk < v.sb.bitmapStart+v.sb.bitmapBlks {
				continue
			}
			if c := v.meta[blk]; c == nil || len(c) != len(b) || &c[0] != &b[0] {
				t.Fatalf("after %s: meta[%d] is not the slice in %s", after, blk, where)
			}
		}
	}
	check("txn", v.txn, nil)
	check("pending", v.pending, v.txn)
}

func sortedPaths(m map[string]fs.File) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
