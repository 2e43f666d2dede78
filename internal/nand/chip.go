package nand

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"time"

	"flashwear/internal/simrand"
)

// Operation errors returned by Chip. A failed program or erase leaves the
// block in a state the caller (normally the FTL) must handle by marking the
// block bad and relocating data — exactly what device firmware does.
var (
	ErrBadBlock      = errors.New("nand: block is marked bad")
	ErrNotErased     = errors.New("nand: page already programmed since last erase")
	ErrOutOfOrder    = errors.New("nand: pages must be programmed sequentially within a block")
	ErrProgramFail   = errors.New("nand: program operation failed")
	ErrEraseFail     = errors.New("nand: erase operation failed")
	ErrUncorrectable = errors.New("nand: raw bit errors exceed ECC capability")
	ErrNotProgrammed = errors.New("nand: reading an unprogrammed page")
	ErrAddr          = errors.New("nand: address out of range")
)

// OpError is how a chip operation reports one of the sentinels above or
// ErrPowerLoss: what was attempted where, wrapping the sentinel so
// errors.Is sees through it. Failures are organic events in a wear run,
// so the text is built only when someone asks for it.
type OpError struct {
	Op   Op
	Addr PageAddr // an erase uses only Addr.Block
	// Bits and T are the worst codeword's raw bit errors and the ECC
	// capability they exceeded, for an uncorrectable read the error model
	// decided; both are zero for an injected transient.
	Bits, T int
	Err     error
}

func (e *OpError) Unwrap() error { return e.Err }

func (e *OpError) Error() string {
	where := e.Addr.String()
	if e.Op == OpErase {
		where = fmt.Sprintf("block %d", e.Addr.Block)
	}
	switch {
	case e.Err == ErrPowerLoss:
		where = [...]string{OpRead: "read ", OpProgram: "program ", OpErase: "erase "}[e.Op] + where
	case e.Err == ErrUncorrectable && e.T == 0:
		where += " (injected transient)"
	case e.Err == ErrUncorrectable:
		where += fmt.Sprintf(" (%d bit errors > t=%d)", e.Bits, e.T)
	}
	return e.Err.Error() + ": " + where
}

// Config assembles everything needed to instantiate a chip. Zero-valued
// fields fall back to sensible defaults in New.
type Config struct {
	Geometry Geometry
	Cell     CellType
	// RatedPE overrides the cell type's default rated endurance when > 0.
	RatedPE int
	// Errors overrides DefaultErrorModel when non-zero.
	Errors *ErrorModel
	// Timing overrides DefaultTiming(Cell) when non-zero.
	Timing *Timing
	// Seed makes the chip's stochastic behaviour (block-to-block endurance
	// variation, program failures, sampled bit errors) reproducible.
	Seed int64
	// Now supplies simulated time for retention and healing effects.
	// A nil Now disables time-dependent effects.
	Now func() time.Duration
	// CorrectableBits is the ECC capability (max correctable bit errors
	// per 1 KiB codeword) the chip's reads are judged against. It lives
	// here rather than in the FTL so ReadPage can report uncorrectable
	// reads directly. Defaults to 8, eMMC-class BCH.
	CorrectableBits int
	// Inject, when non-nil, is consulted before every operation and may
	// force transient read errors, program/erase failures, or a power
	// cut. Nil (the default) costs one pointer comparison per op.
	Inject FaultInjector
}

const (
	// stressSpread is the half-width of the uniform per-block endurance
	// variation: each block's wear accrues stress in [1-s, 1+s] (±8%, per
	// observed die-to-die variation).
	stressSpread           = 0.08
	defaultCorrectableBits = 8
	codewordBytes          = 1024
	// expMargin widens worstCodewordErrors' exp(-x) >= 1-x bound past
	// math.Exp's error and the bound's own rounding.
	expMargin = 0x1p-40
)

// Chip simulates a single NAND package. It is not safe for concurrent use;
// the device layer serialises access like a real single-queue eMMC part.
type Chip struct {
	geo     Geometry
	cell    CellType
	ratedPE int
	emodel  ErrorModel
	timing  Timing
	now     func() time.Duration
	rng     *simrand.Rand
	tcorr   int
	inject  FaultInjector
	blocks  []block
	stats   Stats
	// classes holds the payload buffers, one entry per size class (see
	// classOf), in the chip itself so a birth allocates nothing for them:
	// erased buffers no snapshot can reach, which programs take before
	// allocating, and what is left of the class's last slab. lastClass is
	// the class of a whole page.
	classes   [maxClasses]bufClass
	lastClass int
}

// bufClass is one payload size class: its free list and its slab.
type bufClass struct {
	free [][]byte
	slab []byte
}

// OOB is the spare-area metadata firmware stores alongside each page: the
// logical page the payload belongs to and a device-global monotonic program
// sequence number. Power-loss recovery rebuilds the whole logical-physical
// map from nothing but these two fields (the highest sequence wins).
type OOB struct {
	LP  int32  // logical page, -1 for pages written without a mapping
	Seq int64  // global program sequence; 0 means "no metadata"
	Org uint16 // wear-attribution origin tag (internal/wtrace); 0 = untagged
}

type block struct {
	eraseCount int
	healed     float64 // effective cycles recovered by detrapping
	stress     float64 // per-block endurance variation multiplier
	bad        bool
	nextPage   int           // next programmable page (in-order constraint)
	firstProg  time.Duration // time the oldest live page was programmed
	lastErase  time.Duration
	reads      int64 // reads since last erase (read disturb)

	// pages and meta are the block's rows of the chip-wide page index and
	// OOB array. A page has a payload only if it was programmed with one;
	// past the programmed prefix every entry is nil and {LP: -1}. A
	// payload is stored up to its last non-zero byte (an all-zero one as
	// a non-nil empty slice): the rest of the page is zero.
	pages   [][]byte
	meta    []OOB
	hasMeta bool // a program since the erase stored metadata, or ImportState's Meta did
	// shared marks a block whose payloads a snapshot may hold: its next
	// erase drops them instead of putting them on the free list.
	shared bool

	// The error model at the block's current Wear, filled by atWear on
	// first use. Wear moves only in EraseBlock and ImportState; both clear
	// memoOK.
	memoOK    bool
	failProb  float64 // emodel.FailProb(w)
	rber      float64 // emodel.RBER(w)
	retGrowth float64 // emodel.retentionGrowth(w)
}

// Stats counts raw chip activity since creation.
type Stats struct {
	Programs           int64
	Reads              int64
	Erases             int64
	ProgramFails       int64
	EraseFails         int64
	UncorrectableReads int64
	BytesProgrammed    int64
	BadBlocks          int
}

// New builds a chip from cfg. It returns an error if the geometry, error
// model, or timing are invalid.
func New(cfg Config) (*Chip, error) {
	if err := cfg.Geometry.Validate(); err != nil {
		return nil, err
	}
	if !cfg.Cell.Valid() {
		return nil, fmt.Errorf("nand: invalid cell type %v", cfg.Cell)
	}
	rated := cfg.RatedPE
	if rated == 0 {
		rated = cfg.Cell.DefaultRatedPE()
	}
	if rated <= 0 {
		return nil, fmt.Errorf("nand: RatedPE = %d, want > 0", rated)
	}
	em := DefaultErrorModel()
	if cfg.Errors != nil {
		em = *cfg.Errors
	}
	if err := em.Validate(); err != nil {
		return nil, err
	}
	tm := DefaultTiming(cfg.Cell)
	if cfg.Timing != nil {
		tm = *cfg.Timing
	}
	if err := tm.Validate(); err != nil {
		return nil, err
	}
	tcorr := cfg.CorrectableBits
	if tcorr == 0 {
		tcorr = defaultCorrectableBits
	}
	if tcorr < 1 {
		return nil, fmt.Errorf("nand: CorrectableBits = %d, want >= 1", tcorr)
	}
	c := &Chip{
		geo:     cfg.Geometry,
		cell:    cfg.Cell,
		ratedPE: rated,
		emodel:  em,
		timing:  tm,
		now:     cfg.Now,
		rng:     new(simrand.Rand),
		tcorr:   tcorr,
		inject:  cfg.Inject,
		blocks:  make([]block, cfg.Geometry.Blocks()),
	}
	c.lastClass = min(bits.Len(uint(cfg.Geometry.PageSize-1)/minClass), maxClasses-1)
	ppb := cfg.Geometry.PagesPerBlock
	pages := make([][]byte, len(c.blocks)*ppb)
	meta := make([]OOB, len(c.blocks)*ppb)
	for i := range c.blocks {
		b := &c.blocks[i]
		b.pages = pages[i*ppb : (i+1)*ppb]
		b.meta = meta[i*ppb : (i+1)*ppb]
	}
	c.Format(cfg.Seed)
	return c, nil
}

// Format returns the chip to the state New leaves it in with Config.Seed
// = seed: the RNG restarts at seed, the counters are zero, and every block
// is erased, unworn and good, with its endurance variation drawn afresh in
// block order. The configuration and the fault injector are kept, and so
// is the storage: the payload buffers of blocks no snapshot shares go back
// on their free lists, as ImportState recycles them. New runs this too, so a
// field a later change adds to block is zero after Format as after New.
func (c *Chip) Format(seed int64) {
	c.rng.Seed(seed)
	c.stats = Stats{}
	for i := range c.blocks {
		b := &c.blocks[i]
		pages, meta := b.pages, b.meta
		if !b.shared {
			c.recycle(pages[:b.nextPage])
		}
		clear(pages)
		for p := range meta {
			meta[p] = OOB{LP: -1}
		}
		*b = block{
			pages:  pages,
			meta:   meta,
			stress: 1 - stressSpread + 2*stressSpread*c.rng.Float64(),
		}
	}
}

// Geometry returns the chip's layout.
func (c *Chip) Geometry() Geometry { return c.geo }

// RatedPE returns the vendor-rated endurance in P/E cycles.
func (c *Chip) RatedPE() int { return c.ratedPE }

// Stats returns a snapshot of activity counters.
func (c *Chip) Stats() Stats { return c.stats }

func (c *Chip) simNow() time.Duration {
	if c.now == nil {
		return 0
	}
	return c.now()
}

func (c *Chip) inRange(a PageAddr) bool {
	return a.Block >= 0 && a.Block < len(c.blocks) && a.Page >= 0 && a.Page < c.geo.PagesPerBlock
}

// Wear returns a block's effective relative wear: stress-adjusted erase
// cycles net of healing, divided by rated endurance. 1.0 means the block has
// consumed its rated life.
func (c *Chip) Wear(blockIdx int) float64 {
	b := &c.blocks[blockIdx]
	eff := (float64(b.eraseCount) - b.healed) * b.stress
	if eff < 0 {
		eff = 0
	}
	return eff / float64(c.ratedPE)
}

// atWear returns the block with its error-model memo valid: every program
// and read needs an exponential of Wear, which changes once per erase. A
// valid memo costs a check that inlines into the caller.
func (c *Chip) atWear(blockIdx int) *block {
	b := &c.blocks[blockIdx]
	if !b.memoOK {
		c.fillMemo(blockIdx)
	}
	return b
}

// fillMemo fills a block's error-model memo at its current Wear.
func (c *Chip) fillMemo(blockIdx int) {
	b := &c.blocks[blockIdx]
	w := c.Wear(blockIdx)
	b.failProb = c.emodel.FailProb(w)
	b.rber = c.emodel.RBER(w)
	b.retGrowth = c.emodel.retentionGrowth(w)
	b.memoOK = true
}

// EraseCount returns a block's raw erase count.
func (c *Chip) EraseCount(blockIdx int) int { return c.blocks[blockIdx].eraseCount }

// Bad reports whether a block has been marked bad.
func (c *Chip) Bad(blockIdx int) bool { return c.blocks[blockIdx].bad }

// MarkBad retires a block. Firmware calls this after a program/erase failure
// or an uncorrectable read. While power is cut nothing can be persisted, so
// the request is ignored.
func (c *Chip) MarkBad(blockIdx int) {
	if c.inject != nil && c.inject.Down() {
		return
	}
	if !c.blocks[blockIdx].bad {
		c.blocks[blockIdx].bad = true
		c.stats.BadBlocks++
	}
}

// AvgWear returns mean relative wear across non-bad blocks — the quantity
// eMMC firmware summarises into the 11-level life-time estimate.
func (c *Chip) AvgWear() float64 {
	var sum float64
	n := 0
	for i := range c.blocks {
		if c.blocks[i].bad {
			continue
		}
		sum += c.Wear(i)
		n++
	}
	if n == 0 {
		return math.Inf(1)
	}
	return sum / float64(n)
}

// MaxWear returns the maximum relative wear across non-bad blocks.
func (c *Chip) MaxWear() float64 {
	var max float64
	for i := range c.blocks {
		if c.blocks[i].bad {
			continue
		}
		if w := c.Wear(i); w > max {
			max = w
		}
	}
	return max
}

// MinWear returns the minimum relative wear across non-bad blocks, or 0 if
// none remain. MaxWear-MinWear is the spread wear-leveling tries to bound.
func (c *Chip) MinWear() float64 {
	min := math.Inf(1)
	for i := range c.blocks {
		if c.blocks[i].bad {
			continue
		}
		if w := c.Wear(i); w < min {
			min = w
		}
	}
	if math.IsInf(min, 1) {
		return 0
	}
	return min
}

// ExpectedRBER returns the expected raw bit error rate for freshly written
// data at the chip's current average wear — the population-level error
// trajectory telemetry samples over a device's life.
func (c *Chip) ExpectedRBER() float64 { return c.emodel.RBER(c.AvgWear()) }

// ExpectedCodewordErrors returns the expected raw bit errors per ECC
// codeword for freshly written data in a block at its current wear.
func (c *Chip) ExpectedCodewordErrors(blockIdx int) float64 {
	return c.atWear(blockIdx).rber * float64(codewordBytes*8)
}

// ShouldRetire reports whether firmware read-scrub policy would retire the
// block: its expected error count has consumed 75% of the ECC correction
// capability, so further use risks uncorrectable data. Stronger ECC defers
// retirement — the mechanism behind the ECC-strength ablation.
func (c *Chip) ShouldRetire(blockIdx int) bool {
	return c.ExpectedCodewordErrors(blockIdx) > 0.75*float64(c.tcorr)
}

// OpResult describes a completed chip operation.
type OpResult struct {
	Latency   time.Duration
	BitErrors int // worst-codeword raw bit errors observed (reads only)
}

// ProgramPageOOB writes one page. data may be nil for accounting-only
// writes (wear experiments at device scale); when non-nil it is at most
// PageSize bytes, zero-extended to a page, and is retained for later reads.
// oob is the spare-area metadata, stored with the page on success and
// readable back via ReadOOB without any error sampling — it is what
// power-loss recovery scans.
//
// NAND constraints are enforced: the block must not be bad, and pages within
// a block must be programmed in order, each exactly once per erase cycle.
func (c *Chip) ProgramPageOOB(a PageAddr, data []byte, oob OOB) (OpResult, error) {
	if !c.inRange(a) {
		return OpResult{}, &OpError{Op: OpProgram, Addr: a, Err: ErrAddr}
	}
	b := c.atWear(a.Block)
	res := OpResult{Latency: c.timing.ProgramPage}
	if b.bad {
		return res, &OpError{Op: OpProgram, Addr: a, Err: ErrBadBlock}
	}
	if a.Page < b.nextPage {
		return res, &OpError{Op: OpProgram, Addr: a, Err: ErrNotErased}
	}
	if a.Page > b.nextPage {
		return res, fmt.Errorf("%w: %v (next programmable page %d)", ErrOutOfOrder, a, b.nextPage)
	}
	if len(data) > c.geo.PageSize {
		return res, fmt.Errorf("nand: program %v: data length %d > page size %d", a, len(data), c.geo.PageSize)
	}
	injected := FaultNone
	if c.inject != nil {
		injected = c.inject.Inject(OpProgram)
		if injected == FaultPowerCut {
			return res, &OpError{Op: OpProgram, Addr: a, Err: ErrPowerLoss}
		}
	}
	c.stats.Programs++
	c.stats.BytesProgrammed += int64(c.geo.PageSize)
	if b.nextPage == 0 {
		b.firstProg = c.simNow()
	}
	b.nextPage++
	if injected == FaultProgram || c.rng.Float64() < b.failProb {
		c.stats.ProgramFails++
		return res, &OpError{Op: OpProgram, Addr: a, Err: ErrProgramFail}
	}
	if data != nil {
		n := payloadLen(data)
		buf := c.pageBuf(n)
		copy(buf, data[:n])
		b.pages[a.Page] = buf
	}
	b.meta[a.Page] = oob
	b.hasMeta = true
	return res, nil
}

// slabPages is how many pages' worth of bytes pageBuf allocates at once
// when a class's free list is empty: a fresh chip fills its first blocks
// with one allocation per slab rather than per page.
const slabPages = 8

// minClass is the smallest payload size class; each class doubles the
// one before, up to maxClasses classes, and the last is PageSize.
const (
	minClass   = 64
	maxClasses = 11 // 64 B to 32 KiB, and then a whole page
)

// noPayload is the stored form of an all-zero payload: empty, but not
// nil, so the page still reads as programmed with a payload.
var noPayload = []byte{}

// zeros is what payloadLen compares a payload's tail against.
var zeros [2048]byte

// payloadLen returns the length of p up to its last non-zero byte. A
// payload that ends in a non-zero byte (a dense page, or a lent one that
// GC or the cache drain programs again) costs one compare, inlined into
// the caller. Any other goes to zeroTail.
func payloadLen(p []byte) int {
	if len(p) == 0 || p[len(p)-1] != 0 {
		return len(p)
	}
	return zeroTail(p)
}

// zeroTail is payloadLen for a p that ends in a zero byte. It halves the
// range that holds the last non-zero byte, each step one compare of the
// upper part against zeros (runtime.memequal), until 64 bytes are left,
// then steps back by word and byte.
func zeroTail(p []byte) int {
	n := len(p)
	lo := 0 // the last non-zero byte, if any, is in p[lo:n]
	for n-lo > 64 {
		mid := max(lo+(n-lo)/2, n-len(zeros))
		if bytes.Equal(p[mid:n], zeros[:n-mid]) {
			n = mid
		} else {
			lo = mid
		}
	}
	for n >= 8 && binary.LittleEndian.Uint64(p[n-8:]) == 0 {
		n -= 8
	}
	for n > 0 && p[n-1] == 0 {
		n--
	}
	return n
}

// classOf returns the size class of a payload buffer of n bytes, 0 < n <=
// PageSize: class k holds minClass<<k bytes, except the last, which holds
// PageSize.
func (c *Chip) classOf(n int) int { return min(bits.Len(uint(n-1)/minClass), c.lastClass) }

// pageBuf returns an n-byte buffer for a payload: empty for n == 0, else
// classBuf's. The empty case inlines into the caller.
func (c *Chip) pageBuf(n int) []byte {
	if n == 0 {
		return noPayload
	}
	return c.classBuf(n)
}

// classBuf returns an n-byte buffer, n > 0: the last buffer of n's class
// erased onto its free list, or the next of the class's slab. Its capacity
// is its class's size, by which recycle finds the class again.
func (c *Chip) classBuf(n int) []byte {
	k := c.classOf(n)
	cl := &c.classes[k]
	if i := len(cl.free) - 1; i >= 0 {
		buf := cl.free[i]
		cl.free[i] = nil
		cl.free = cl.free[:i]
		return buf[:n]
	}
	size := minClass << k
	if k == c.lastClass {
		size = c.geo.PageSize
	}
	if len(cl.slab) < size {
		cl.slab = make([]byte, slabPages*c.geo.PageSize)
	}
	buf := cl.slab[:n:size]
	cl.slab = cl.slab[size:]
	return buf
}

// recycle puts the payload buffers of pages on their classes' free lists.
// Only the chip's own buffers may come here, never a shared block's.
func (c *Chip) recycle(pages [][]byte) {
	for _, buf := range pages {
		if cap(buf) > 0 {
			cl := &c.classes[c.classOf(cap(buf))]
			cl.free = append(cl.free, buf)
		}
	}
}

// ReadOOB returns the spare-area metadata of a page and whether any was
// stored (pages of failed programs and pre-OOB writes report false). It is
// a recovery-scan primitive: no error sampling, no read-disturb, no stats —
// the FTL accounts the scan's flash work itself.
func (c *Chip) ReadOOB(a PageAddr) (OOB, bool) {
	if !c.inRange(a) {
		return OOB{LP: -1}, false
	}
	b := &c.blocks[a.Block]
	if a.Page >= b.nextPage || !b.hasMeta {
		return OOB{LP: -1}, false
	}
	m := b.meta[a.Page]
	return m, m.Seq != 0
}

// ProgrammedPages returns how many pages of a block have been programmed
// (including failed programs) since its last erase — the high-water mark a
// recovery scan walks.
func (c *Chip) ProgrammedPages(blockIdx int) int {
	return c.blocks[blockIdx].nextPage
}

// ReadPage reads one page, sampling raw bit errors from the block's current
// error rate. If the worst codeword's error count exceeds the ECC
// capability, it returns ErrUncorrectable. Data is returned only if the page
// was programmed with a payload, and only up to its last non-zero byte:
// the page reads as that prefix followed by zeros, and an all-zero page
// as a non-nil empty slice.
//
// The payload is lent, not copied: the slice is the chip's own buffer. It
// is read-only, and it stays valid until the block is next erased, when the
// buffer may be recycled for another program. A caller that keeps the bytes
// longer copies them out; handing them to a program, which zero-extends
// it, is such a copy.
func (c *Chip) ReadPage(a PageAddr) ([]byte, OpResult, error) {
	if !c.inRange(a) {
		return nil, OpResult{}, &OpError{Op: OpRead, Addr: a, Err: ErrAddr}
	}
	b := c.atWear(a.Block)
	res := OpResult{Latency: c.timing.ReadPage}
	if b.bad {
		return nil, res, &OpError{Op: OpRead, Addr: a, Err: ErrBadBlock}
	}
	if a.Page >= b.nextPage {
		return nil, res, &OpError{Op: OpRead, Addr: a, Err: ErrNotProgrammed}
	}
	if c.inject != nil {
		switch c.inject.Inject(OpRead) {
		case FaultPowerCut:
			return nil, res, &OpError{Op: OpRead, Addr: a, Err: ErrPowerLoss}
		case FaultRead:
			c.stats.Reads++
			b.reads++
			c.stats.UncorrectableReads++
			res.BitErrors = c.tcorr + 1
			return nil, res, &OpError{Op: OpRead, Addr: a, Err: ErrUncorrectable}
		}
	}
	c.stats.Reads++
	b.reads++
	storedHours := (c.simNow() - b.firstProg).Hours()
	if storedHours < 0 {
		storedHours = 0
	}
	rber := c.emodel.withRetention(b.rber, b.retGrowth, storedHours)
	rber += c.emodel.ReadDisturbRBER * float64(b.reads)
	res.BitErrors = c.worstCodewordErrors(rber)
	if res.BitErrors > c.tcorr {
		c.stats.UncorrectableReads++
		return nil, res, &OpError{Op: OpRead, Addr: a, Bits: res.BitErrors, T: c.tcorr, Err: ErrUncorrectable}
	}
	return b.pages[a.Page], res, nil
}

// EraseBlock erases a block, consuming one P/E cycle. On failure the block
// should be marked bad by the caller. The block's page buffers go back on
// their free lists unless it is shared, in which case a snapshot may still
// hold them and they are dropped.
func (c *Chip) EraseBlock(blockIdx int) (OpResult, error) {
	if blockIdx < 0 || blockIdx >= len(c.blocks) {
		return OpResult{}, &OpError{Op: OpErase, Addr: PageAddr{Block: blockIdx}, Err: ErrAddr}
	}
	b := &c.blocks[blockIdx]
	res := OpResult{Latency: c.timing.EraseBlock}
	if b.bad {
		return res, &OpError{Op: OpErase, Addr: PageAddr{Block: blockIdx}, Err: ErrBadBlock}
	}
	injected := FaultNone
	if c.inject != nil {
		injected = c.inject.Inject(OpErase)
		if injected == FaultPowerCut {
			return res, &OpError{Op: OpErase, Addr: PageAddr{Block: blockIdx}, Err: ErrPowerLoss}
		}
	}
	c.stats.Erases++
	now := c.simNow()
	if c.emodel.HealPerIdleHour > 0 && b.eraseCount > 0 {
		idle := (now - b.lastErase).Hours()
		if idle > 0 {
			b.healed += c.emodel.HealPerIdleHour * idle
			// Detrapping cannot recover more than half the accumulated damage.
			if limit := float64(b.eraseCount) * 0.5; b.healed > limit {
				b.healed = limit
			}
		}
	}
	b.eraseCount++
	b.memoOK = false
	b.lastErase = now
	if !b.shared {
		c.recycle(b.pages[:b.nextPage])
	}
	clear(b.pages[:b.nextPage])
	for p := 0; p < b.nextPage; p++ {
		b.meta[p] = OOB{LP: -1}
	}
	b.nextPage = 0
	b.hasMeta = false
	b.shared = false
	b.reads = 0
	if injected == FaultErase || c.rng.Float64() < c.atWear(blockIdx).failProb {
		c.stats.EraseFails++
		return res, &OpError{Op: OpErase, Addr: PageAddr{Block: blockIdx}, Err: ErrEraseFail}
	}
	return res, nil
}

// worstCodewordErrors samples per-codeword raw bit error counts at rate rber
// and returns the maximum — the codeword that decides correctability.
//
// Each count is Poisson(mean). Large means (dying blocks) use a normal
// approximation. Small means — the healthy blocks — use Knuth's method,
// which returns 0 when the first uniform draw u is at most exp(-mean).
// Since exp(-x) >= 1-x, a draw u <= 1-mean-2⁻⁴⁰ already settles that; the
// 2⁻⁴⁰ margin is thousands of ulps wider than math.Exp's error and the
// bound's own rounding. So exp is computed, once per page, only when a draw
// lands above the bound, which at a healthy block's mean of about 1e-4 is
// one codeword in ten thousand. The draws, their number and order, and
// every count are those of the plain method.
func (c *Chip) worstCodewordErrors(rber float64) int {
	ncw := c.geo.PageSize / codewordBytes
	if ncw < 1 {
		ncw = 1
	}
	mean := rber * float64(codewordBytes*8)
	if mean <= 0 {
		return 0
	}
	worst := 0
	if mean > 30 {
		for i := 0; i < ncw; i++ {
			if k := int(mean + math.Sqrt(mean)*c.rng.NormFloat64() + 0.5); k > worst {
				worst = k
			}
		}
		return worst
	}
	sure := 1 - mean - expMargin // u <= sure implies u <= exp(-mean)
	l := -1.0                    // exp(-mean), computed on first need
	for i := 0; i < ncw; i++ {
		p := c.rng.Float64()
		if p <= sure {
			continue
		}
		if l < 0 {
			l = math.Exp(-mean)
		}
		k := 0
		for p > l {
			p *= c.rng.Float64()
			k++
		}
		if k > worst {
			worst = k
		}
	}
	return worst
}
