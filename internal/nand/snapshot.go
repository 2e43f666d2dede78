package nand

import (
	"fmt"
	"slices"
	"time"
)

// BlockState is the persistent state of one block: everything a power cut
// cannot erase. It mirrors the chip's internal block bookkeeping with
// exported fields so a snapshot codec outside this package can serialise
// it. Meta and Data hold only the programmed prefix; pages past the prefix
// carry nothing by construction. A payload in Data is at most PageSize
// bytes and reads zero-extended to a page; the chip's own end at their
// last non-zero byte.
type BlockState struct {
	EraseCount int
	Healed     float64
	Stress     float64
	Bad        bool
	NextPage   int
	FirstProg  time.Duration
	LastErase  time.Duration
	Reads      int64
	Meta       []OOB    // nil, or exactly NextPage entries
	Data       [][]byte // nil, or exactly NextPage entries, nil where a page has no payload; read-only, shared with the chip
}

// ChipState is a chip's complete persistent state: per-block state plus
// the cumulative activity counters. Together with the OOB-scan recovery in
// internal/ftl it is the serialization seam for checkpoint/resume — an
// imported chip is indistinguishable from one that lost power between
// operations, so ftl.Recover rebuilds every volatile structure above it.
type ChipState struct {
	Geometry Geometry
	Stats    Stats
	Blocks   []BlockState
}

// ExportState captures the chip's persistent state. The caller may keep
// using the chip: counters, Meta and the Data page indexes are copies, and
// the page payloads are shared rather than copied, which is safe because a
// NAND page is write-once — ProgramPageOOB stores a private copy that
// nothing writes again and ReadPage copies out. Erased buffers are reused,
// so ExportState marks every block whose payloads it shares, and the next
// erase of such a block drops its buffers instead of recycling them. The
// snapshot therefore never changes under later programs and erases; its
// holder must not write through Data either.
func (c *Chip) ExportState() *ChipState {
	st := &ChipState{
		Geometry: c.geo,
		Stats:    c.stats,
		Blocks:   make([]BlockState, len(c.blocks)),
	}
	for i := range c.blocks {
		b := &c.blocks[i]
		bs := BlockState{
			EraseCount: b.eraseCount,
			Healed:     b.healed,
			Stress:     b.stress,
			Bad:        b.bad,
			NextPage:   b.nextPage,
			FirstProg:  b.firstProg,
			LastErase:  b.lastErase,
			Reads:      b.reads,
		}
		if b.hasMeta {
			bs.Meta = append([]OOB(nil), b.meta[:b.nextPage]...)
		}
		if pages := b.pages[:b.nextPage]; slices.ContainsFunc(pages, func(p []byte) bool { return p != nil }) {
			bs.Data = slices.Clone(pages)
			b.shared = true
		}
		st.Blocks[i] = bs
	}
	return st
}

// ImportState replaces the chip's persistent state with st. The chip must
// have been built with the same geometry (same profile, same scale); the
// RNG is left untouched — callers that need deterministic post-import
// behaviour should Reseed. Counters, Meta and the page indexes are copied
// in and the page payloads shared (see ExportState): an imported block is
// marked so that erasing it drops the state's buffers, never recycles
// them. The caller may import st into any number of chips, or discard it,
// but must not write through its Data. A payload may be shorter than a
// page (the rest is zero); the chip keeps it up to its last non-zero byte,
// by reslicing rather than copying. The payloads of the chip's own that
// the import replaces go back on its free lists, so a chip that imports
// state after state stops allocating.
func (c *Chip) ImportState(st *ChipState) error {
	if st.Geometry != c.geo {
		return fmt.Errorf("nand: ImportState: geometry mismatch: chip %+v, state %+v", c.geo, st.Geometry)
	}
	if len(st.Blocks) != len(c.blocks) {
		return fmt.Errorf("nand: ImportState: %d blocks in state, chip has %d", len(st.Blocks), len(c.blocks))
	}
	for i := range st.Blocks {
		bs := &st.Blocks[i]
		if bs.NextPage < 0 || bs.NextPage > c.geo.PagesPerBlock {
			return fmt.Errorf("nand: ImportState: block %d: NextPage %d out of range [0,%d]", i, bs.NextPage, c.geo.PagesPerBlock)
		}
		if bs.Meta != nil && len(bs.Meta) != bs.NextPage {
			return fmt.Errorf("nand: ImportState: block %d: %d meta entries, want %d", i, len(bs.Meta), bs.NextPage)
		}
		if bs.Data != nil && len(bs.Data) != bs.NextPage {
			return fmt.Errorf("nand: ImportState: block %d: %d data entries, want %d", i, len(bs.Data), bs.NextPage)
		}
		for pg, d := range bs.Data {
			if len(d) > c.geo.PageSize {
				return fmt.Errorf("nand: ImportState: block %d page %d: %d data bytes, more than %d", i, pg, len(d), c.geo.PageSize)
			}
		}
	}
	c.stats = st.Stats
	for i := range st.Blocks {
		bs := &st.Blocks[i]
		b := &c.blocks[i]
		if !b.shared {
			// The chip's own payloads: nothing outside it holds them, so a
			// chip that takes a new state recycles them.
			c.recycle(b.pages[:b.nextPage])
		}
		b.eraseCount = bs.EraseCount
		b.healed = bs.Healed
		b.stress = bs.Stress
		b.memoOK = false
		b.bad = bs.Bad
		b.nextPage = bs.NextPage
		b.firstProg = bs.FirstProg
		b.lastErase = bs.LastErase
		b.reads = bs.Reads
		for p := range b.meta {
			b.meta[p] = OOB{LP: -1}
		}
		copy(b.meta, bs.Meta)
		b.hasMeta = bs.Meta != nil
		clear(b.pages)
		for pg, d := range bs.Data {
			if d != nil {
				b.pages[pg] = d[:payloadLen(d)]
			}
		}
		b.shared = bs.Data != nil
	}
	return nil
}

// Reseed restarts the chip's RNG stream at seed, in place: the draws that
// follow are those of a chip built with Config.Seed = seed. Resume paths
// use it to make post-import stochastic behaviour (program/erase failure
// draws, sampled bit errors) a pure function of (device seed, resume
// point) rather than of however many draws the previous process had
// consumed.
func (c *Chip) Reseed(seed int64) { c.rng.Seed(seed) }

// SetInjector replaces the chip's fault injector (nil for none), for a
// chip handed to another device with another fault plan.
func (c *Chip) SetInjector(inj FaultInjector) { c.inject = inj }

// View fills st with the chip's persistent state as ExportState reports
// it, without copying: Meta and Data alias the chip's own rows, and st's
// Blocks array is reused when it is long enough. The view is read-only
// and valid only until the chip's next program, erase or import — long
// enough to encode it, which is what it is for.
func (c *Chip) View(st *ChipState) {
	st.Geometry = c.geo
	st.Stats = c.stats
	if cap(st.Blocks) < len(c.blocks) {
		st.Blocks = make([]BlockState, len(c.blocks))
	}
	st.Blocks = st.Blocks[:len(c.blocks)]
	for i := range c.blocks {
		b := &c.blocks[i]
		bs := BlockState{
			EraseCount: b.eraseCount,
			Healed:     b.healed,
			Stress:     b.stress,
			Bad:        b.bad,
			NextPage:   b.nextPage,
			FirstProg:  b.firstProg,
			LastErase:  b.lastErase,
			Reads:      b.reads,
		}
		if b.hasMeta && b.nextPage > 0 {
			bs.Meta = b.meta[:b.nextPage]
		}
		if b.nextPage > 0 {
			bs.Data = b.pages[:b.nextPage]
		}
		st.Blocks[i] = bs
	}
}
