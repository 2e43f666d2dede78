package fleetd

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"flashwear/internal/fleet"
	"flashwear/internal/ftl"
	"flashwear/internal/nand"
	"flashwear/internal/report"
	"flashwear/internal/wtrace"
)

// Checkpoint files fail in three distinguishable ways, and the service
// treats them differently: a version mismatch is an operator problem
// (old binary, new file — refuse loudly), a truncated file is the normal
// signature of a crash mid-write (silently recompute the cell), and a
// corrupt file (bad CRC, bad magic, malformed frame) means the storage
// under the service is lying (refuse loudly). No error path ever
// restores a partial state.
var (
	// ErrCheckpointVersion reports a checkpoint written by an
	// incompatible codec version.
	ErrCheckpointVersion = errors.New("fleetd: checkpoint version mismatch")
	// ErrCheckpointTruncated reports a checkpoint cut short — a missing
	// end marker or a frame that runs past end of file.
	ErrCheckpointTruncated = errors.New("fleetd: checkpoint truncated")
	// ErrCheckpointCorrupt reports a structurally damaged checkpoint:
	// bad magic, CRC mismatch, or a malformed frame payload.
	ErrCheckpointCorrupt = errors.New("fleetd: checkpoint corrupt")
)

// ckptVersion is the codec version stamped after the file magic. Bump on
// any layout change; old files then fail with ErrCheckpointVersion
// instead of decoding garbage. Version 2 writes a non-zero page as its
// non-zero span and carries main-pool GC copies once per device frame.
const ckptVersion = 2

// fileMagic opens every checkpoint file; endMagic closes a complete one.
// A file without endMagic is a crash artifact by definition.
const (
	fileMagic = "FWFLTCKP"
	endMagic  = "FWCKDONE"
)

// Frame types. Every frame is [1B type][4B length][payload][4B CRC32].
const (
	frameHeader byte = 1
	frameDevice byte = 2
	frameFooter byte = 3
)

// fileHeader identifies the (campaign, shard, epoch) cell a checkpoint
// belongs to; resume refuses files whose identity doesn't match the
// campaign asking for them.
type fileHeader struct {
	Seed    int64
	Devices int
	Days    int
	Shard   int
	Epoch   int
	DevLo   int
	DevHi   int
	DayLo   int
	DayHi   int
}

// epochFooter is the aggregate trailer of one (shard, epoch) cell — the
// only part of a checkpoint the fleet-level merge needs. Rows/Wear are
// the epoch's day series including frozen dead-device contributions;
// FrozenRows/FrozenWear and Agg are the cumulative carry the next epoch
// seeds from; Final (present only in the horizon's last epoch) adds the
// survivors to Agg; Ledger is the point-in-time fleet ledger (dead plus
// live), for mid-run queries.
type epochFooter struct {
	Shard      int
	Epoch      int
	DayLo      int
	DayHi      int
	Live       int
	Rows       [][]int64
	Wear       []report.Sketch
	FrozenRows []int64
	FrozenWear report.Sketch
	Agg        *Aggregate
	Final      *Aggregate
	Ledger     wtrace.Snapshot
}

// codec walks a frame payload's layout in one direction: an encode (dec
// unset) appends each field to b, and a decode (dec set) reads the same
// field back from b through the same pointer, so each layout is written
// once. All integers are little-endian and fixed-width: the format trades
// compactness for output that is byte-identical for equal states —
// re-encoding a decoded state must reproduce the input exactly (pinned by
// tests), which rules out anything order- or history-dependent.
//
// A decode never panics on a short or malformed payload: it latches bad,
// reads zeros from then on, and the caller checks done() once at the end.
// Any inconsistency maps to ErrCheckpointCorrupt (the CRC already passed,
// so a malformed payload means a codec mismatch, not bit rot — still not
// restorable). Only a decode validates: an encode writes what it is given.
type codec struct {
	b   []byte
	off int // a decode's read position in b
	dec bool
	bad bool
	// a is where a decoded device state goes; only device frames need one.
	a *arena
	// index counts the page-index entries a decode has carved.
	index int
}

// zeros is what a decode reads once it has gone bad.
var zeros [8]byte

// take returns a decode's next n bytes, or nil and latches bad when the
// payload has fewer left.
func (c *codec) take(n int) []byte {
	if c.bad || n < 0 || c.off+n > len(c.b) {
		c.bad = true
		return nil
	}
	p := c.b[c.off : c.off+n]
	c.off += n
	return p
}

// next is take for a fixed-width field, zeros in place of a short read. It
// does not call take, which would put word, half and u16 over the
// inliner's budget.
func (c *codec) next(n int) []byte {
	if c.bad || c.off+n > len(c.b) {
		c.bad = true
		return zeros[:n]
	}
	c.off += n
	return c.b[c.off-n : c.off]
}

// want latches bad when a decode finds ok false, and reports whether the
// walk may go on.
func (c *codec) want(ok bool) bool {
	if c.dec && !ok {
		c.bad = true
	}
	return !c.bad
}

// word carries an integer in 8 bytes.
func word[T ~int | ~int64 | ~uint64](c *codec, v *T) {
	if c.dec {
		*v = T(binary.LittleEndian.Uint64(c.next(8)))
	} else {
		c.b = binary.LittleEndian.AppendUint64(c.b, uint64(*v))
	}
}

// half carries an integer in 4 bytes.
func half[T ~int32 | ~uint32](c *codec, v *T) {
	if c.dec {
		*v = T(binary.LittleEndian.Uint32(c.next(4)))
	} else {
		c.b = binary.LittleEndian.AppendUint32(c.b, uint32(*v))
	}
}

func (c *codec) u16(v *uint16) {
	if c.dec {
		*v = binary.LittleEndian.Uint16(c.next(2))
	} else {
		c.b = binary.LittleEndian.AppendUint16(c.b, *v)
	}
}

func (c *codec) f64(v *float64) {
	if c.dec {
		*v = math.Float64frombits(binary.LittleEndian.Uint64(c.next(8)))
	} else {
		c.b = binary.LittleEndian.AppendUint64(c.b, math.Float64bits(*v))
	}
}

// bool carries a flag in one byte and returns it. A decode accepts only
// the two bytes an encode writes: a decoded frame must re-encode to
// itself, so a third spelling of true is a malformed frame.
func (c *codec) bool(v *bool) bool {
	if c.dec {
		u := c.next(1)[0]
		c.want(u <= 1)
		*v = u == 1
	} else if *v {
		c.b = append(c.b, 1)
	} else {
		c.b = append(c.b, 0)
	}
	return *v
}

// count carries a length n in 4 bytes and returns it. perItem is the
// least one item encodes to, and a decode refuses a length whose items
// could not fit in the bytes left, so a lying length cannot drive an
// allocation larger than the frame by more than an item's struct-to-wire
// ratio.
func (c *codec) count(n, perItem int) int {
	u := uint32(n)
	half(c, &u)
	if !c.want(int(u)*perItem <= len(c.b)-c.off) {
		return 0
	}
	return int(u)
}

// str carries a string as its length and bytes. A decode keeps *v when
// the bytes match it, so decoding into last night's rows allocates no
// strings.
func (c *codec) str(v *string) {
	n := c.count(len(*v), 1)
	if !c.dec {
		c.b = append(c.b, *v...)
	} else if b := c.take(n); string(b) != *v {
		*v = string(b)
	}
}

// done reports whether the payload decoded cleanly and completely.
func (c *codec) done() error {
	if c.bad {
		return fmt.Errorf("%w: malformed frame payload", ErrCheckpointCorrupt)
	}
	if c.off != len(c.b) {
		return fmt.Errorf("%w: %d trailing bytes in frame payload", ErrCheckpointCorrupt, len(c.b)-c.off)
	}
	return nil
}

// arena is the storage one worker decodes the device states it is handed
// into, reused from device to device: a state's chip rows and payload
// pages are carved out of it, and a decode starts again from its start.
// A chip that imports the state shares the pages — the shared-block rule
// (nand.ExportState) drops them at erase instead of recycling them, so no
// arena page ever reaches a chip's free list — and so one use of the arena
// ends when the worker has encoded that device's end-of-epoch frame: the
// next decode overwrites the pages the previous device's stack still
// points at, and only a retarget and import, which replace every page,
// touch that stack again (DESIGN.md §11).
type arena struct {
	dev    deviceState
	chips  [2]nand.ChipState // Main, Cache
	nchips int
	oob    []nand.OOB
	index  [][]byte
	// bytes holds the payloads, each carved only as long as a chip
	// stores it: the span's offset plus the span. A zero-flagged page
	// decodes to no bytes at all.
	bytes []byte
	// The next free entry of each of the three.
	nOOB, nIndex, nBytes int
}

func (a *arena) reset() { a.nchips, a.nOOB, a.nIndex, a.nBytes = 0, 0, 0, 0 }

// chip returns the next chip state; chipState sizes its Blocks.
func (a *arena) chip() *nand.ChipState {
	st := &a.chips[a.nchips]
	a.nchips++
	return st
}

// carve returns the next n entries of *buf from *next on, growing *buf
// when they do not fit; what was carved before stays valid either way.
// Like make, it never returns nil.
func carve[T any](buf *[]T, next *int, n int) []T {
	if n == 0 {
		return make([]T, 0)
	}
	if *next+n > len(*buf) {
		*buf = make([]T, max(2*len(*buf), n))
		*next = 0
	}
	out := (*buf)[*next : *next+n : *next+n]
	*next += n
	return out
}

// ---- layouts ----

func (c *codec) fileHeader(h *fileHeader) {
	word(c, &h.Seed)
	for _, p := range []*int{&h.Devices, &h.Days, &h.Shard, &h.Epoch, &h.DevLo, &h.DevHi, &h.DayLo, &h.DayHi} {
		word(c, p)
	}
}

func (c *codec) geometry(g *nand.Geometry) {
	for _, p := range []*int{&g.Dies, &g.PlanesPerDie, &g.BlocksPerPlane, &g.PagesPerBlock, &g.PageSize, &g.SpareSize} {
		word(c, p)
	}
}

// geometrySane caps a decoded geometry against resource exhaustion: a
// frame that passes its CRC can still carry a hostile or drifted
// geometry, and the chip-state decode allocates up to PageSize bytes per
// span page (at least ten frame bytes each) before done() gets a chance to
// reject the frame. The caps sit far above any simulated chip, so a
// genuine state never trips them; PageSize's is also what lets a span's
// offset and length-1 fit their u16 fields.
func geometrySane(g nand.Geometry) bool {
	return g.Dies > 0 && g.Dies <= 1<<10 &&
		g.PlanesPerDie > 0 && g.PlanesPerDie <= 1<<10 &&
		g.BlocksPerPlane > 0 && g.BlocksPerPlane <= 1<<20 &&
		g.PagesPerBlock > 0 && g.PagesPerBlock <= 1<<16 &&
		g.PageSize > 0 && g.PageSize <= 1<<16 &&
		g.SpareSize >= 0 && g.SpareSize <= 1<<16
}

func (c *codec) nandStats(s *nand.Stats) {
	for _, p := range []*int64{&s.Programs, &s.Reads, &s.Erases, &s.ProgramFails,
		&s.EraseFails, &s.UncorrectableReads, &s.BytesProgrammed} {
		word(c, p)
	}
	word(c, &s.BadBlocks)
}

// nonZeroSpan returns the half-open range [lo, hi) from a page's first
// non-zero byte to just past its last; lo == hi means the page is all
// zeros. The rewrite workloads write zero-filled buffers, so most data
// pages are all-zero and cost one flag byte; what is left is file-system
// metadata, a few short runs in a page of zeros, and the span is the part
// that carries information. The leading zeros are skipped 64 bytes at a
// time (the OR of eight words), then a word, then a byte. A chip stores a
// payload only up to its last non-zero byte (nand.Chip.ReadPage), so the
// trailing trim is one compare for every page a chip hands over; any
// other page is trimmed byte by byte.
func nonZeroSpan(p []byte) (lo, hi int) {
	for lo+64 <= len(p) && orWords(p[lo:lo+64]) == 0 {
		lo += 64
	}
	for lo+8 <= len(p) {
		if w := binary.LittleEndian.Uint64(p[lo:]); w != 0 {
			lo += bits.TrailingZeros64(w) / 8
			break
		}
		lo += 8
	}
	for lo < len(p) && p[lo] == 0 {
		lo++
	}
	hi = len(p)
	for hi > lo && p[hi-1] == 0 {
		hi--
	}
	return lo, hi
}

// orWords is the OR of the eight little-endian words of a 64-byte block.
func orWords(b []byte) uint64 {
	_ = b[63]
	return binary.LittleEndian.Uint64(b[0:]) | binary.LittleEndian.Uint64(b[8:]) |
		binary.LittleEndian.Uint64(b[16:]) | binary.LittleEndian.Uint64(b[24:]) |
		binary.LittleEndian.Uint64(b[32:]) | binary.LittleEndian.Uint64(b[40:]) |
		binary.LittleEndian.Uint64(b[48:]) | binary.LittleEndian.Uint64(b[56:])
}

// page carries one payload: flag 1 for an all-zero page, else flag 0 and
// [u16 offset][u16 len-1][the bytes from first to last non-zero]. A decode
// gives a chip's stored form: an empty payload, or the page up to the end
// of its span, carved from the arena. The span must be the canonical one
// — inside the page, non-zero at both ends — because fork restamps cells
// by decode and re-encode, and that must reproduce the bytes.
func (c *codec) page(p *[]byte, pageSize int) {
	var lo, hi int
	if !c.dec {
		lo, hi = nonZeroSpan(*p)
	}
	if zero := lo == hi; c.bool(&zero) {
		if c.dec {
			*p = noPayload
		}
		return
	}
	off, last := uint16(lo), uint16(hi-lo-1)
	c.u16(&off)
	c.u16(&last)
	if !c.dec {
		c.b = append(c.b, (*p)[lo:hi]...)
		return
	}
	lo = int(off)
	span := c.take(int(last) + 1)
	if !c.want(span != nil && lo+len(span) <= pageSize && span[0] != 0 && span[len(span)-1] != 0) {
		*p = nil
		return
	}
	pg := carve(&c.a.bytes, &c.a.nBytes, lo+len(span))
	clear(pg[:lo])
	copy(pg[lo:], span)
	*p = pg
}

// noPayload is what an all-zero page decodes to: empty, as a chip stores
// it, but not nil, which would mean no payload at all.
var noPayload = []byte{}

// chipState carries a chip's state. A decode sizes st.Blocks and fills
// each block's page-indexed Data (NextPage entries, nil where a page has
// no payload, or nil when none has). Its page slices are the only copy
// the resume path makes: ImportState shares them with the booted chip,
// which never writes through them and drops them at erase rather than
// recycling them (nand.ExportState).
func (c *codec) chipState(st *nand.ChipState) {
	c.geometry(&st.Geometry)
	c.nandStats(&st.Stats)
	g := st.Geometry
	if !c.want(geometrySane(g)) {
		return
	}
	nb := c.count(len(st.Blocks), 7*8+2+4) // seven words, two flags, a page count
	if !c.want(nb <= g.Dies*g.PlanesPerDie*g.BlocksPerPlane) {
		return
	}
	if c.dec {
		if cap(st.Blocks) < nb {
			st.Blocks = make([]nand.BlockState, nb)
		}
		st.Blocks = st.Blocks[:nb]
	}
	for i := range st.Blocks {
		b := &st.Blocks[i]
		if c.dec {
			*b = nand.BlockState{}
		}
		word(c, &b.EraseCount)
		c.f64(&b.Healed)
		c.f64(&b.Stress)
		c.bool(&b.Bad)
		word(c, &b.NextPage)
		word(c, &b.FirstProg)
		word(c, &b.LastErase)
		word(c, &b.Reads)
		if !c.want(b.NextPage >= 0 && b.NextPage <= g.PagesPerBlock) {
			return
		}
		if meta := b.Meta != nil; c.bool(&meta) {
			nm := c.count(len(b.Meta), 14)
			if !c.want(nm <= g.PagesPerBlock) {
				return
			}
			if c.dec {
				b.Meta = carve(&c.a.oob, &c.a.nOOB, nm)
			}
			for j := range b.Meta {
				m := &b.Meta[j]
				half(c, &m.LP)
				word(c, &m.Seq)
				c.u16(&m.Org)
			}
		}
		// The page-indexed Data: the count of pages with a payload, then
		// each as its page number and bytes, in strictly ascending page
		// order inside the programmed prefix — the only order a decode
		// accepts.
		np := 0
		for _, data := range b.Data {
			if data != nil {
				np++
			}
		}
		np = c.count(np, 4+1)
		if !c.want(np <= b.NextPage) {
			return
		}
		// One payload page claims NextPage index entries, so a block's
		// own bytes cannot bound them: the frame's whole length does. A
		// real frame carries 14 bytes of Meta per programmed page and so
		// reads fewer than one entry per 14 bytes.
		if c.dec && np > 0 {
			if c.index += b.NextPage; !c.want(c.index <= len(c.b)/8) {
				return
			}
			b.Data = carve(&c.a.index, &c.a.nIndex, b.NextPage)
			clear(b.Data)
		}
		for j, next := 0, 0; j < np && !c.bad; j++ {
			pg := uint32(next)
			for !c.dec && b.Data[pg] == nil {
				pg++
			}
			half(c, &pg)
			if !c.want(int(pg) >= next && int(pg) < b.NextPage) {
				return
			}
			next = int(pg) + 1
			c.page(&b.Data[pg], g.PageSize)
		}
	}
}

// sketch decodes Counts as a non-nil slice, even an empty one.
func (c *codec) sketch(s *report.Sketch) {
	n := c.count(len(s.Counts), 8)
	word(c, &s.Under)
	word(c, &s.Over)
	if c.dec {
		s.Counts = make([]int64, n)
	}
	for i := range s.Counts {
		word(c, &s.Counts[i])
	}
}

func (c *codec) histogram(h *report.Histogram) {
	c.f64(&h.Min)
	c.f64(&h.Max)
	c.sketch(&h.Sketch)
}

// snapshot decodes into s.Rows' storage when it is large enough, keeping
// each row's origin string when the decoded name is the same, so a
// worker's nightly decode of a ledger allocates no strings.
func (c *codec) snapshot(s *wtrace.Snapshot) {
	word(c, &s.PageSize)
	n := c.count(len(s.Rows), 4+10*8)
	if c.dec {
		rows := s.Rows
		if n > cap(rows) {
			rows = make([]wtrace.Row, n)
		}
		s.Rows = nil
		if n > 0 {
			s.Rows = rows[:n]
		}
	}
	for i := range s.Rows {
		r := &s.Rows[i]
		c.str(&r.Origin)
		for _, p := range []*int64{&r.HostPages, &r.HostBytes, &r.HostPrograms, &r.GCPrograms,
			&r.WLPrograms, &r.CachePrograms, &r.PhysPages, &r.PhysBytes, &r.Erases, &r.ErasePages} {
			word(c, p)
		}
	}
}

func (c *codec) group(g *Group) {
	for _, p := range []*int64{&g.Devices, &g.Bricked, &g.ReadOnly, &g.HostMiB, &g.BrickDayMilli} {
		word(c, p)
	}
}

// namedGroups decodes into a nil *gs, and leaves an empty breakdown nil:
// the campaign fingerprint hashes the aggregate's JSON, where null and []
// differ.
func (c *codec) namedGroups(gs *[]NamedGroup) {
	n := c.count(len(*gs), 4+5*8)
	for i := 0; i < n && !c.bad; i++ {
		if c.dec {
			*gs = append(*gs, NamedGroup{})
		}
		c.str(&(*gs)[i].Name)
		c.group(&(*gs)[i].Group)
	}
}

// aggregate decodes into a zero *a.
func (c *codec) aggregate(a *Aggregate) {
	c.group(&a.Total)
	c.namedGroups(&a.ByProfile)
	c.namedGroups(&a.ByClass)
	for _, h := range []**report.Histogram{&a.TimeToBrick, &a.DeathGiB, &a.SurvivorWear, &a.WriteAmp} {
		if c.dec {
			*h = new(report.Histogram)
		}
		c.histogram(*h)
	}
	c.snapshot(&a.Ledger)
}

// footer decodes into a zero *ft.
func (c *codec) footer(ft *epochFooter) {
	for _, p := range []*int{&ft.Shard, &ft.Epoch, &ft.DayLo, &ft.DayHi, &ft.Live} {
		word(c, p)
	}
	rows := c.count(len(ft.Rows), fleet.DayCols*8+4+2*8) // a row and an empty sketch
	cols := uint32(fleet.DayCols)
	if half(c, &cols); !c.want(cols == fleet.DayCols) {
		return
	}
	if c.dec {
		ft.Rows = make([][]int64, rows)
		for i := range ft.Rows {
			ft.Rows[i] = make([]int64, fleet.DayCols)
		}
		ft.Wear = make([]report.Sketch, rows)
		ft.FrozenRows = make([]int64, fleet.DayCols)
		ft.Agg = new(Aggregate)
	}
	for _, r := range ft.Rows {
		for j := range r {
			word(c, &r[j])
		}
	}
	for i := range ft.Wear {
		c.sketch(&ft.Wear[i])
	}
	for j := range ft.FrozenRows {
		word(c, &ft.FrozenRows[j])
	}
	c.sketch(&ft.FrozenWear)
	c.aggregate(ft.Agg)
	if final := ft.Final != nil; c.bool(&final) {
		if c.dec {
			ft.Final = new(Aggregate)
		}
		c.aggregate(ft.Final)
	}
	c.snapshot(&ft.Ledger)
}

// ftlStats carries every ftl.Stats field but GCCopies, which the FTL never
// fills in: the live counter sits next to the pool and travels as
// deviceState.GCCopies.
func (c *codec) ftlStats(s *ftl.Stats) {
	for _, p := range []*int64{&s.HostPagesWritten, &s.HostPagesRead, &s.HostBytesWritten,
		&s.DrainMigrations, &s.CacheAbsorbed, &s.CacheBypassed,
		&s.LostPages, &s.MergeEvents, &s.ReadRetries, &s.ProgramRetries, &s.Recoveries} {
		word(c, p)
	}
}

// deviceState decodes into c.a's device, whose chips come from c.a.
func (c *codec) deviceState(st *deviceState) {
	word(c, &st.Index)
	word(c, &st.DaysDone)
	word(c, &st.Now)
	word(c, &st.WorkStart)
	word(c, &st.BytesWritten)
	word(c, &st.BytesRead)
	word(c, &st.Busy)
	word(c, &st.FSWrites)
	c.ftlStats(&st.FTLStats)
	word(c, &st.GCCopies)
	c.snapshot(&st.Ledger)
	if c.dec {
		st.Main, st.Cache = c.a.chip(), nil
	}
	c.chipState(st.Main)
	if cache := st.Cache != nil; c.bool(&cache) {
		if c.dec {
			st.Cache = c.a.chip()
		}
		c.chipState(st.Cache)
	}
}
