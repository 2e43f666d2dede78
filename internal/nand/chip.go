package nand

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"
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
	// StressSpread is the half-width of the uniform per-block endurance
	// variation: each block's wear accrues stress in [1-s, 1+s].
	// Defaults to 0.08 (±8%), per observed die-to-die variation.
	StressSpread float64
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
	defaultStressSpread    = 0.08
	defaultCorrectableBits = 8
	codewordBytes          = 1024
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
	rng     *rand.Rand
	tcorr   int
	inject  FaultInjector
	blocks  []block
	stats   Stats
	// free holds erased page buffers no snapshot can reach; payload
	// programs take from it before allocating.
	free [][]byte
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
	// past the programmed prefix every entry is nil and {LP: -1}.
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
	spread := cfg.StressSpread
	if spread == 0 {
		spread = defaultStressSpread
	}
	if spread < 0 || spread >= 1 {
		return nil, fmt.Errorf("nand: StressSpread = %g, want [0,1)", spread)
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
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		tcorr:   tcorr,
		inject:  cfg.Inject,
		blocks:  make([]block, cfg.Geometry.Blocks()),
	}
	ppb := cfg.Geometry.PagesPerBlock
	pages := make([][]byte, len(c.blocks)*ppb)
	meta := make([]OOB, len(c.blocks)*ppb)
	for i := range meta {
		meta[i].LP = -1
	}
	for i := range c.blocks {
		b := &c.blocks[i]
		b.stress = 1 - spread + 2*spread*c.rng.Float64()
		b.pages = pages[i*ppb : (i+1)*ppb]
		b.meta = meta[i*ppb : (i+1)*ppb]
	}
	return c, nil
}

// Geometry returns the chip's layout.
func (c *Chip) Geometry() Geometry { return c.geo }

// Cell returns the chip's cell type.
func (c *Chip) Cell() CellType { return c.cell }

// RatedPE returns the vendor-rated endurance in P/E cycles.
func (c *Chip) RatedPE() int { return c.ratedPE }

// Timing returns the chip's operation latencies.
func (c *Chip) Timing() Timing { return c.timing }

// Stats returns a snapshot of activity counters.
func (c *Chip) Stats() Stats { return c.stats }

// CorrectableBits returns the ECC capability reads are judged against.
func (c *Chip) CorrectableBits() int { return c.tcorr }

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
// and read needs an exponential of Wear, which changes once per erase.
func (c *Chip) atWear(blockIdx int) *block {
	b := &c.blocks[blockIdx]
	if !b.memoOK {
		w := c.Wear(blockIdx)
		b.failProb = c.emodel.FailProb(w)
		b.rber = c.emodel.RBER(w)
		b.retGrowth = c.emodel.retentionGrowth(w)
		b.memoOK = true
	}
	return b
}

// EraseCount returns a block's raw erase count.
func (c *Chip) EraseCount(blockIdx int) int { return c.blocks[blockIdx].eraseCount }

// ReadsSinceErase returns a block's accumulated read-disturb exposure.
func (c *Chip) ReadsSinceErase(blockIdx int) int64 { return c.blocks[blockIdx].reads }

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

// ProgramPage writes one page. data may be nil for accounting-only writes
// (wear experiments at device scale); when non-nil it must be exactly
// PageSize bytes and is retained for later reads.
//
// NAND constraints are enforced: the block must not be bad, and pages within
// a block must be programmed in order, each exactly once per erase cycle.
func (c *Chip) ProgramPage(a PageAddr, data []byte) (OpResult, error) {
	return c.ProgramPageOOB(a, data, OOB{LP: -1})
}

// ProgramPageOOB is ProgramPage with spare-area metadata: oob is stored
// with the page on success and is readable back via ReadOOB without any
// error sampling — it is what power-loss recovery scans.
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
	if data != nil && len(data) != c.geo.PageSize {
		return res, fmt.Errorf("nand: program %v: data length %d != page size %d", a, len(data), c.geo.PageSize)
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
		buf := c.pageBuf()
		copy(buf, data)
		b.pages[a.Page] = buf
	}
	b.meta[a.Page] = oob
	b.hasMeta = true
	return res, nil
}

// pageBuf returns a page-sized buffer for a payload: the last one erased
// onto the free list, or a new one.
func (c *Chip) pageBuf() []byte {
	n := len(c.free)
	if n == 0 {
		return make([]byte, c.geo.PageSize)
	}
	buf := c.free[n-1]
	c.free[n-1] = nil
	c.free = c.free[:n-1]
	return buf
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
// was programmed with a payload.
//
// The payload is lent, not copied: the slice is the chip's own buffer. It
// is read-only, and it stays valid until the block is next erased, when the
// buffer may be recycled for another program. A caller that keeps the bytes
// longer copies them out; handing them to a program is such a copy.
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
// the free list unless it is shared, in which case a snapshot may still
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
	for p := 0; p < b.nextPage; p++ {
		if buf := b.pages[p]; buf != nil {
			if !b.shared {
				c.free = append(c.free, buf)
			}
			b.pages[p] = nil
		}
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
func (c *Chip) worstCodewordErrors(rber float64) int {
	ncw := c.geo.PageSize / codewordBytes
	if ncw < 1 {
		ncw = 1
	}
	mean := rber * float64(codewordBytes*8)
	l := math.Exp(-mean)
	worst := 0
	for i := 0; i < ncw; i++ {
		if k := c.poisson(mean, l); k > worst {
			worst = k
		}
	}
	return worst
}

// poisson samples a Poisson-distributed count with the given mean; l is
// exp(-mean), which a page's codewords share. For the small means typical of
// healthy blocks it uses Knuth's method; for large means (dying blocks) it
// falls back to a normal approximation.
func (c *Chip) poisson(mean, l float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		k := int(mean + math.Sqrt(mean)*c.rng.NormFloat64() + 0.5)
		if k < 0 {
			k = 0
		}
		return k
	}
	k := 0
	p := 1.0
	for {
		p *= c.rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
