package fleetd

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"time"

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

// enc builds a frame payload. All integers are little-endian and
// fixed-width: the format trades compactness for a codec whose output is
// byte-identical for equal states — re-encoding a decoded state must
// reproduce the input exactly (pinned by tests), which rules out anything
// order- or history-dependent.
type enc struct{ b []byte }

func (e *enc) u8(v byte) { e.b = append(e.b, v) }

func (e *enc) u16(v uint16) { e.b = binary.LittleEndian.AppendUint16(e.b, v) }

func (e *enc) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }

func (e *enc) i32(v int32) { e.u32(uint32(v)) }

func (e *enc) i64(v int64) { e.b = binary.LittleEndian.AppendUint64(e.b, uint64(v)) }

func (e *enc) f64(v float64) { e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(v)) }

func (e *enc) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

func (e *enc) str(s string) {
	e.u32(uint32(len(s)))
	e.b = append(e.b, s...)
}

func (e *enc) raw(p []byte) { e.b = append(e.b, p...) }

// dec consumes a frame payload. Overruns latch bad instead of panicking;
// the caller checks done() once at the end, and any inconsistency maps to
// ErrCheckpointCorrupt (the CRC already passed, so a malformed payload
// means a codec mismatch, not bit rot — still not restorable).
type dec struct {
	b   []byte
	off int
	bad bool
	// zero is the one all-zero page every zero-flagged page of the frame
	// decodes to: the flag costs one input byte but claims PageSize, and a
	// hostile frame could otherwise multiply a small payload into an
	// arbitrarily large allocation. Safe to alias across the entries of
	// the page-indexed BlockState.Data because NAND pages are write-once
	// and an imported block's erase drops its pages, never recycles them
	// (nand.ExportState).
	zero []byte
}

func (d *dec) take(n int) []byte {
	if d.bad || n < 0 || d.off+n > len(d.b) {
		d.bad = true
		return nil
	}
	p := d.b[d.off : d.off+n]
	d.off += n
	return p
}

func (d *dec) u8() byte {
	p := d.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

func (d *dec) u16() uint16 {
	p := d.take(2)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(p)
}

func (d *dec) u32() uint32 {
	p := d.take(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

func (d *dec) i32() int32 { return int32(d.u32()) }

func (d *dec) i64() int64 {
	p := d.take(8)
	if p == nil {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(p))
}

func (d *dec) f64() float64 {
	p := d.take(8)
	if p == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(p))
}

// bool accepts only the two bytes the encoder writes: a decoded frame must
// re-encode to itself, so a third spelling of true is a malformed frame.
func (d *dec) bool() bool {
	v := d.u8()
	if v > 1 {
		d.bad = true
	}
	return v == 1
}

// count reads a u32 length and sanity-caps it against the bytes left, so
// a garbage length cannot drive a giant allocation.
func (d *dec) count(perItem int) int {
	n := int(d.u32())
	if perItem > 0 && n > len(d.b)-d.off {
		d.bad = true
		return 0
	}
	return n
}

func (d *dec) str() string {
	n := d.count(1)
	return string(d.take(n))
}

// done reports whether the payload decoded cleanly and completely.
func (d *dec) done() error {
	if d.bad {
		return fmt.Errorf("%w: malformed frame payload", ErrCheckpointCorrupt)
	}
	if d.off != len(d.b) {
		return fmt.Errorf("%w: %d trailing bytes in frame payload", ErrCheckpointCorrupt, len(d.b)-d.off)
	}
	return nil
}

// ---- sub-codecs ----

func (e *enc) fileHeader(h fileHeader) {
	e.i64(h.Seed)
	for _, v := range []int{h.Devices, h.Days, h.Shard, h.Epoch, h.DevLo, h.DevHi, h.DayLo, h.DayHi} {
		e.i64(int64(v))
	}
}

func (d *dec) fileHeader() fileHeader {
	var h fileHeader
	h.Seed = d.i64()
	for _, p := range []*int{&h.Devices, &h.Days, &h.Shard, &h.Epoch, &h.DevLo, &h.DevHi, &h.DayLo, &h.DayHi} {
		*p = int(d.i64())
	}
	return h
}

func (e *enc) geometry(g nand.Geometry) {
	for _, v := range []int{g.Dies, g.PlanesPerDie, g.BlocksPerPlane, g.PagesPerBlock, g.PageSize, g.SpareSize} {
		e.i64(int64(v))
	}
}

func (d *dec) geometry() nand.Geometry {
	var g nand.Geometry
	for _, p := range []*int{&g.Dies, &g.PlanesPerDie, &g.BlocksPerPlane, &g.PagesPerBlock, &g.PageSize, &g.SpareSize} {
		*p = int(d.i64())
	}
	return g
}

// geometrySane caps a decoded geometry against resource exhaustion: a
// frame that passes its CRC can still carry a hostile or drifted
// geometry, and the chip-state decode allocates PageSize bytes per span
// page (at least ten frame bytes each) before done() gets a chance to
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

func (e *enc) nandStats(s nand.Stats) {
	e.i64(s.Programs)
	e.i64(s.Reads)
	e.i64(s.Erases)
	e.i64(s.ProgramFails)
	e.i64(s.EraseFails)
	e.i64(s.UncorrectableReads)
	e.i64(s.BytesProgrammed)
	e.i64(int64(s.BadBlocks))
}

func (d *dec) nandStats() nand.Stats {
	var s nand.Stats
	s.Programs = d.i64()
	s.Reads = d.i64()
	s.Erases = d.i64()
	s.ProgramFails = d.i64()
	s.EraseFails = d.i64()
	s.UncorrectableReads = d.i64()
	s.BytesProgrammed = d.i64()
	s.BadBlocks = int(d.i64())
	return s
}

// nonZeroSpan returns the half-open range [lo, hi) from a page's first
// non-zero byte to just past its last, scanning a word at a time from
// each end; lo == hi means the page is all zeros. The rewrite workloads
// write zero-filled buffers, so most data pages are all-zero and cost one
// flag byte; what is left is file-system metadata, a few short runs in a
// page of zeros, and the span is the part that carries information.
func nonZeroSpan(p []byte) (lo, hi int) {
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
	if lo == len(p) {
		return lo, lo
	}
	hi = len(p)
	for hi-8 >= lo {
		if w := binary.LittleEndian.Uint64(p[hi-8:]); w != 0 {
			hi -= bits.LeadingZeros64(w) / 8
			break
		}
		hi -= 8
	}
	for p[hi-1] == 0 {
		hi--
	}
	return lo, hi
}

// page writes one payload: flag 1 for an all-zero page, else flag 0 and
// [u16 offset][u16 len-1][the bytes from first to last non-zero].
func (e *enc) page(data []byte) {
	lo, hi := nonZeroSpan(data)
	if lo == hi {
		e.bool(true)
		return
	}
	e.bool(false)
	e.u16(uint16(lo))
	e.u16(uint16(hi - lo - 1))
	e.raw(data[lo:hi])
}

// page reads one payload: the shared zero page, or a fresh PageSize slice
// around the span. The span must be the canonical one — inside the page,
// non-zero at both ends — because fork restamps cells by decode and
// re-encode, and that must reproduce the bytes.
func (d *dec) page(pageSize int) []byte {
	if d.bool() {
		if len(d.zero) != pageSize {
			d.zero = make([]byte, pageSize)
		}
		return d.zero
	}
	lo := int(d.u16())
	span := d.take(int(d.u16()) + 1)
	if span == nil || lo+len(span) > pageSize || span[0] == 0 || span[len(span)-1] == 0 {
		d.bad = true
		return nil
	}
	p := make([]byte, pageSize)
	copy(p[lo:], span)
	return p
}

func (e *enc) chipState(st *nand.ChipState) {
	e.geometry(st.Geometry)
	e.nandStats(st.Stats)
	e.u32(uint32(len(st.Blocks)))
	for i := range st.Blocks {
		b := &st.Blocks[i]
		e.i64(int64(b.EraseCount))
		e.f64(b.Healed)
		e.f64(b.Stress)
		e.bool(b.Bad)
		e.i64(int64(b.NextPage))
		e.i64(int64(b.FirstProg))
		e.i64(int64(b.LastErase))
		e.i64(b.Reads)
		e.bool(b.Meta != nil)
		if b.Meta != nil {
			e.u32(uint32(len(b.Meta)))
			for _, m := range b.Meta {
				e.i32(m.LP)
				e.i64(m.Seq)
				e.u16(m.Org)
			}
		}
		// The page-indexed Data: the count of pages with a payload, then
		// each as its page number and bytes, in ascending page order.
		np := 0
		for _, data := range b.Data {
			if data != nil {
				np++
			}
		}
		e.u32(uint32(np))
		for pg, data := range b.Data {
			if data != nil {
				e.u32(uint32(pg))
				e.page(data)
			}
		}
	}
}

// chipState decodes a chip's state into page-indexed Data (NextPage
// entries, nil where a page has no payload, or nil when none has). Its
// page slices are the only copy the resume path makes: ImportState shares
// them with the booted chip, which never writes through them and drops
// them at erase rather than recycling them (nand.ExportState).
func (d *dec) chipState() *nand.ChipState {
	st := &nand.ChipState{Geometry: d.geometry(), Stats: d.nandStats()}
	g := st.Geometry
	if d.bad || !geometrySane(g) {
		d.bad = true
		return st
	}
	nb := d.count(8)
	if nb > g.Dies*g.PlanesPerDie*g.BlocksPerPlane {
		d.bad = true
		return st
	}
	st.Blocks = make([]nand.BlockState, nb)
	for i := 0; i < nb && !d.bad; i++ {
		b := &st.Blocks[i]
		b.EraseCount = int(d.i64())
		b.Healed = d.f64()
		b.Stress = d.f64()
		b.Bad = d.bool()
		b.NextPage = int(d.i64())
		b.FirstProg = time.Duration(d.i64())
		b.LastErase = time.Duration(d.i64())
		b.Reads = d.i64()
		if b.NextPage < 0 || b.NextPage > g.PagesPerBlock {
			d.bad = true
			return st
		}
		if d.bool() {
			nm := d.count(14)
			if nm > g.PagesPerBlock {
				d.bad = true
				return st
			}
			b.Meta = make([]nand.OOB, nm)
			for j := 0; j < nm && !d.bad; j++ {
				b.Meta[j].LP = d.i32()
				b.Meta[j].Seq = d.i64()
				b.Meta[j].Org = d.u16()
			}
		}
		np := d.count(5)
		if np > b.NextPage {
			d.bad = true
			return st
		}
		if np > 0 {
			b.Data = make([][]byte, b.NextPage)
		}
		// Strictly ascending page numbers inside the programmed prefix:
		// the only order the encoder writes.
		next := 0
		for j := 0; j < np && !d.bad; j++ {
			pg := int(d.u32())
			if pg < next || pg >= b.NextPage {
				d.bad = true
				return st
			}
			next = pg + 1
			b.Data[pg] = d.page(g.PageSize)
		}
	}
	return st
}

func (e *enc) sketch(s report.Sketch) {
	e.u32(uint32(len(s.Counts)))
	e.i64(s.Under)
	e.i64(s.Over)
	for _, c := range s.Counts {
		e.i64(c)
	}
}

func (d *dec) sketch() report.Sketch {
	n := d.count(8)
	s := report.Sketch{Counts: make([]int64, n)}
	s.Under = d.i64()
	s.Over = d.i64()
	for i := range s.Counts {
		s.Counts[i] = d.i64()
	}
	return s
}

func (e *enc) histogram(h *report.Histogram) {
	e.f64(h.Min)
	e.f64(h.Max)
	e.sketch(h.Sketch)
}

func (d *dec) histogram() *report.Histogram {
	h := &report.Histogram{}
	h.Min = d.f64()
	h.Max = d.f64()
	h.Sketch = d.sketch()
	return h
}

func (e *enc) snapshot(s wtrace.Snapshot) {
	e.i64(s.PageSize)
	e.u32(uint32(len(s.Rows)))
	for _, r := range s.Rows {
		e.str(r.Origin)
		for _, v := range []int64{r.HostPages, r.HostBytes, r.HostPrograms, r.GCPrograms,
			r.WLPrograms, r.CachePrograms, r.PhysPages, r.PhysBytes, r.Erases, r.ErasePages} {
			e.i64(v)
		}
	}
}

func (d *dec) snapshot() wtrace.Snapshot {
	var s wtrace.Snapshot
	s.PageSize = d.i64()
	n := d.count(8)
	if n > 0 {
		s.Rows = make([]wtrace.Row, n)
	}
	for i := 0; i < n && !d.bad; i++ {
		r := &s.Rows[i]
		r.Origin = d.str()
		for _, p := range []*int64{&r.HostPages, &r.HostBytes, &r.HostPrograms, &r.GCPrograms,
			&r.WLPrograms, &r.CachePrograms, &r.PhysPages, &r.PhysBytes, &r.Erases, &r.ErasePages} {
			*p = d.i64()
		}
	}
	return s
}

func (e *enc) group(g Group) {
	e.i64(g.Devices)
	e.i64(g.Bricked)
	e.i64(g.ReadOnly)
	e.i64(g.HostMiB)
	e.i64(g.BrickDayMilli)
}

func (d *dec) group() Group {
	var g Group
	g.Devices = d.i64()
	g.Bricked = d.i64()
	g.ReadOnly = d.i64()
	g.HostMiB = d.i64()
	g.BrickDayMilli = d.i64()
	return g
}

func (e *enc) namedGroups(gs []NamedGroup) {
	e.u32(uint32(len(gs)))
	for _, g := range gs {
		e.str(g.Name)
		e.group(g.Group)
	}
}

func (d *dec) namedGroups() []NamedGroup {
	n := d.count(5)
	var gs []NamedGroup
	for i := 0; i < n && !d.bad; i++ {
		gs = append(gs, NamedGroup{Name: d.str(), Group: d.group()})
	}
	return gs
}

func (e *enc) aggregate(a *Aggregate) {
	e.group(a.Total)
	e.namedGroups(a.ByProfile)
	e.namedGroups(a.ByClass)
	e.histogram(a.TimeToBrick)
	e.histogram(a.DeathGiB)
	e.histogram(a.SurvivorWear)
	e.histogram(a.WriteAmp)
	e.snapshot(a.Ledger)
}

func (d *dec) aggregate() *Aggregate {
	a := &Aggregate{}
	a.Total = d.group()
	a.ByProfile = d.namedGroups()
	a.ByClass = d.namedGroups()
	a.TimeToBrick = d.histogram()
	a.DeathGiB = d.histogram()
	a.SurvivorWear = d.histogram()
	a.WriteAmp = d.histogram()
	a.Ledger = d.snapshot()
	return a
}

func (e *enc) footer(ft *epochFooter) {
	e.i64(int64(ft.Shard))
	e.i64(int64(ft.Epoch))
	e.i64(int64(ft.DayLo))
	e.i64(int64(ft.DayHi))
	e.i64(int64(ft.Live))
	e.u32(uint32(len(ft.Rows)))
	e.u32(fleet.DayCols)
	for _, r := range ft.Rows {
		for _, v := range r {
			e.i64(v)
		}
	}
	for _, s := range ft.Wear {
		e.sketch(s)
	}
	for _, v := range ft.FrozenRows {
		e.i64(v)
	}
	e.sketch(ft.FrozenWear)
	e.aggregate(ft.Agg)
	e.bool(ft.Final != nil)
	if ft.Final != nil {
		e.aggregate(ft.Final)
	}
	e.snapshot(ft.Ledger)
}

func (d *dec) footer() *epochFooter {
	ft := &epochFooter{}
	ft.Shard = int(d.i64())
	ft.Epoch = int(d.i64())
	ft.DayLo = int(d.i64())
	ft.DayHi = int(d.i64())
	ft.Live = int(d.i64())
	rows := d.count(8)
	if cols := d.u32(); cols != fleet.DayCols {
		d.bad = true
		return ft
	}
	ft.Rows = make([][]int64, rows)
	for i := range ft.Rows {
		r := make([]int64, fleet.DayCols)
		for j := range r {
			r[j] = d.i64()
		}
		ft.Rows[i] = r
	}
	ft.Wear = make([]report.Sketch, rows)
	for i := range ft.Wear {
		ft.Wear[i] = d.sketch()
	}
	ft.FrozenRows = make([]int64, fleet.DayCols)
	for j := range ft.FrozenRows {
		ft.FrozenRows[j] = d.i64()
	}
	ft.FrozenWear = d.sketch()
	ft.Agg = d.aggregate()
	if d.bool() {
		ft.Final = d.aggregate()
	}
	ft.Ledger = d.snapshot()
	return ft
}

// ftlStats carries every ftl.Stats field but GCCopies, which the FTL never
// fills in: the live counter sits next to the pool and travels as
// deviceState.GCCopies.
func (e *enc) ftlStats(s ftl.Stats) {
	for _, v := range []int64{s.HostPagesWritten, s.HostPagesRead, s.HostBytesWritten,
		s.DrainMigrations, s.CacheAbsorbed, s.CacheBypassed,
		s.LostPages, s.MergeEvents, s.ReadRetries, s.ProgramRetries, s.Recoveries} {
		e.i64(v)
	}
}

func (d *dec) ftlStats() ftl.Stats {
	var s ftl.Stats
	for _, p := range []*int64{&s.HostPagesWritten, &s.HostPagesRead, &s.HostBytesWritten,
		&s.DrainMigrations, &s.CacheAbsorbed, &s.CacheBypassed,
		&s.LostPages, &s.MergeEvents, &s.ReadRetries, &s.ProgramRetries, &s.Recoveries} {
		*p = d.i64()
	}
	return s
}

func (e *enc) deviceState(st *deviceState) {
	e.i64(int64(st.Index))
	e.i64(int64(st.DaysDone))
	e.i64(int64(st.Now))
	e.i64(int64(st.WorkStart))
	e.i64(st.BytesWritten)
	e.i64(st.BytesRead)
	e.i64(int64(st.Busy))
	e.i64(int64(st.FSWrites))
	e.ftlStats(st.FTLStats)
	e.i64(st.GCCopies)
	e.snapshot(st.Ledger)
	e.chipState(st.Main)
	e.bool(st.Cache != nil)
	if st.Cache != nil {
		e.chipState(st.Cache)
	}
}

func (d *dec) deviceState() *deviceState {
	st := &deviceState{}
	st.Index = int(d.i64())
	st.DaysDone = int(d.i64())
	st.Now = time.Duration(d.i64())
	st.WorkStart = time.Duration(d.i64())
	st.BytesWritten = d.i64()
	st.BytesRead = d.i64()
	st.Busy = time.Duration(d.i64())
	st.FSWrites = int(d.i64())
	st.FTLStats = d.ftlStats()
	st.GCCopies = d.i64()
	st.Ledger = d.snapshot()
	st.Main = d.chipState()
	if d.bool() {
		st.Cache = d.chipState()
	}
	return st
}
