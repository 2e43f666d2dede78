// Package a exercises the maporder analyzer: map iteration order may not
// reach an io.Writer, a string, or an escaping unsorted slice; the
// collect/sort/iterate idiom is recognized and allowed.
package a

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

func emit(w io.Writer, m map[string]int) {
	for k, v := range m {
		fmt.Fprintf(w, "%s=%d\n", k, v) // want `fmt\.Fprintf inside range over map`
	}
}

func buildString(m map[string]int) string {
	var sb strings.Builder
	var s string
	for k := range m {
		sb.WriteString(k) // want `write to \*strings\.Builder\.WriteString inside range over map`
		s += k            // want `string built across range over map`
		s = s + "!"       // want `string built across range over map`
	}
	return s + sb.String()
}

func sortedIdiom(m map[uint32]bool) []uint32 {
	keys := make([]uint32, 0, len(m))
	for k := range m {
		keys = append(keys, k) // ok: sorted right below
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

func leak(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k) // want `append to out inside range over map without sorting`
	}
	return out
}

func loopLocal(m map[string]int) int {
	total := 0
	for _, v := range m {
		parts := []string{} // ok: loop-local, dies with the iteration
		parts = append(parts, "x")
		total += v + len(parts) // ok: integer accumulation is order-independent
	}
	return total
}

func waived(w io.Writer, m map[string]int) {
	for k := range m {
		//flashvet:ignore maporder each key writes to its own per-device file, order is immaterial
		fmt.Fprintln(w, k)
	}
}

// blockDev is the write half of blockdev.Device; maporder recognizes the
// shape, not the import path.
type blockDev interface {
	WriteAt(p []byte, off int64) error
	WriteAccounted(off, length int64) error
	Discard(off, length int64) error
}

type vol struct {
	dev   blockDev
	dirty map[uint32][]byte
	stale map[uint32]bool
}

func (v *vol) writeBlock(blk uint32, b []byte) error { return v.dev.WriteAt(b, int64(blk)*4096) }

// writeMeta reaches the device only through writeBlock.
func (v *vol) writeMeta(blk uint32, b []byte) error { return v.writeBlock(blk, b) }

func (v *vol) seen(blk uint32) bool { return v.stale[blk] }

func (v *vol) flushInMapOrder() error {
	for blk, b := range v.dirty {
		if err := v.writeMeta(blk, b); err != nil { // want `call to writeMeta, which writes to a block device, inside range over map`
			return err
		}
	}
	for blk := range v.stale {
		_ = v.dev.Discard(int64(blk)*4096, 4096)        // want `block-device Discard inside range over map`
		_ = v.dev.WriteAccounted(int64(blk)*4096, 4096) // want `block-device WriteAccounted inside range over map`
	}
	return nil
}

func (v *vol) flushSorted() error {
	blks := make([]uint32, 0, len(v.dirty))
	for blk := range v.dirty {
		if !v.seen(blk) { // ok: seen never reaches the device
			blks = append(blks, blk)
		}
	}
	sort.Slice(blks, func(i, j int) bool { return blks[i] < blks[j] })
	for _, blk := range blks {
		if err := v.writeMeta(blk, v.dirty[blk]); err != nil { // ok: slice order
			return err
		}
	}
	return nil
}

// notADevice has a WriteAt, but not a block device's.
type notADevice struct{}

func (notADevice) WriteAt(p []byte, off int64) (int, error) { return len(p), nil }

func scatter(f notADevice, m map[int64][]byte) {
	for off, p := range m {
		f.WriteAt(p, off) // ok: io.WriterAt's shape, not a block device's
	}
}
