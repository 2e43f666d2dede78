package ftl

import (
	"errors"
	"fmt"

	"flashwear/internal/nand"
	"flashwear/internal/wtrace"
)

// Errors surfaced by pool management.
var (
	// ErrNoSpace means the pool has no free block and nothing reclaimable:
	// the device can no longer accept the write. For an internal chip this
	// is the point the paper calls "bricked".
	ErrNoSpace = errors.New("ftl: out of usable flash space")
)

type blockState uint8

const (
	sFree blockState = iota
	sOpen
	sFull
	sBad
)

// gcPool manages one chip's blocks with out-of-place writes, garbage
// collection, and wear-leveling — the main ("Type B") pool.
type gcPool struct {
	id   PoolID
	chip *nand.Chip
	ppb  int

	state []blockState
	valid []int32 // valid pages per block
	fill  []int32 // pages programmed per block since erase (dead = fill-valid)
	seqNo []int64 // fill sequence, for cost-benefit aging
	rmap  []int32 // physical page index -> logical page, -1 if dead/free

	free []int
	// Three write streams with separate open blocks, as real controllers
	// keep: host writes, GC-relocated (still-hot churn survivors), and
	// wear-leveling moves (cold data). Keeping them apart stops cold data
	// from being interleaved with dying hot pages — the mixing would both
	// inflate GC work and make clean cold blocks look fragmented.
	openBlk  [3]int
	openPage [3]int
	seq      int64

	policy        GCPolicy
	noWL          bool // wear-leveling off: no dynamic allocation, no static relocation
	reserve       int  // free blocks GC relocation may dip into
	erasesSinceWL int
	collecting    bool // re-entrancy guard: GC must not recurse into GC
	relocating    int  // block currently being relocated, -1 if none

	// remap tells the owner a logical page moved (GC/WL relocation).
	remap func(lp int32, l loc)
	// onMigrate reports each GC page copy so the owner can account it.
	gcCopies int64
	// collects counts GC invocations (collect calls that did work).
	collects int64

	// gseq points at the FTL's global OOB sequence counter; stats at its
	// Stats block (both owned by the FTL, dummies when tested standalone).
	gseq  *int64
	stats *Stats
	// lostPower is set when an internal operation (GC read/erase) saw
	// power drop, for paths that cannot propagate an error.
	lostPower bool

	// tr/orgs are the wear-attribution hooks (internal/wtrace): orgs
	// mirrors rmap with the origin that last programmed each physical
	// page, so relocations and erases can be charged to the writer whose
	// data caused them. Both nil when tracing is off.
	tr   *wtrace.Tracer
	orgs []wtrace.Origin
}

func newGCPool(id PoolID, chip *nand.Chip, cfg *Config, remap func(int32, loc)) *gcPool {
	g := chip.Geometry()
	nb := g.Blocks()
	p := &gcPool{
		id:         id,
		chip:       chip,
		ppb:        g.PagesPerBlock,
		state:      make([]blockState, nb),
		valid:      make([]int32, nb),
		fill:       make([]int32, nb),
		seqNo:      make([]int64, nb),
		rmap:       make([]int32, nb*g.PagesPerBlock),
		free:       make([]int, 0, nb),
		openBlk:    [3]int{-1, -1, -1},
		policy:     cfg.GC,
		noWL:       cfg.NoWearLeveling,
		reserve:    2,
		relocating: -1,
		remap:      remap,
		gseq:       new(int64),
		stats:      new(Stats),
	}
	for i := range p.rmap {
		p.rmap[i] = -1
	}
	for b := 0; b < nb; b++ {
		p.free = append(p.free, b)
	}
	return p
}

func (p *gcPool) freeCount() int { return len(p.free) }

// validPages returns the number of live pages in the pool.
func (p *gcPool) validPages() int64 {
	var n int64
	for _, v := range p.valid {
		n += int64(v)
	}
	return n
}

// takeFree removes and returns the free block with the lowest erase count
// (dynamic wear-leveling) or simply the last one when dynamic WL is off.
func (p *gcPool) takeFree() int {
	if len(p.free) == 0 {
		return -1
	}
	pick := len(p.free) - 1
	if !p.noWL {
		for i, b := range p.free {
			if p.chip.EraseCount(b) < p.chip.EraseCount(p.free[pick]) {
				pick = i
			}
		}
	}
	b := p.free[pick]
	p.free[pick] = p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	return b
}

// Stream identifiers.
const (
	streamHost = iota // host writes (and cache drain)
	streamGC          // GC relocation: churn survivors, still hot
	streamWL          // wear-leveling moves: cold data
)

// stream returns a write stream's open-block cursor.
func (p *gcPool) stream(st int) (blk *int, page *int) {
	return &p.openBlk[st], &p.openPage[st]
}

// openFor ensures the chosen stream has an open block with a free page.
// reserveOK lets GC relocation dip into the reserve blocks.
func (p *gcPool) openFor(cost *Cost, reserveOK bool, st int) error {
	blk, page := p.stream(st)
	if *blk >= 0 && *page < p.ppb {
		return nil
	}
	p.closeStream(st)
	floor := p.reserve
	if reserveOK {
		floor = 0
	}
	if len(p.free) <= floor {
		err := p.collect(cost)
		// Collection relocates pages and may itself have opened (and
		// partially filled) this stream's block; keep using it rather
		// than leaking it.
		if *blk >= 0 && *page < p.ppb {
			return nil
		}
		p.closeStream(st)
		if err != nil && len(p.free) <= floor {
			return err
		}
	}
	if len(p.free) <= floor {
		// Perfectly compacted: if no block holds a single dead page there
		// is nothing GC could ever reclaim, so the reserve margin is plain
		// capacity, not relocation headroom. Let the host consume it down
		// to one block — all a future relocation pass needs, and any
		// overwrite it absorbs mints the garbage that restarts GC.
		if reserveOK || floor <= 1 || len(p.free) <= 1 || p.hasGarbage() {
			return ErrNoSpace
		}
	}
	b := p.takeFree()
	*blk = b
	*page = 0
	p.state[b] = sOpen
	return nil
}

// closeStream marks a stream's open block full (if any).
func (p *gcPool) closeStream(st int) {
	blk, _ := p.stream(st)
	if *blk < 0 {
		return
	}
	p.state[*blk] = sFull
	p.seq++
	p.seqNo[*blk] = p.seq
	*blk = -1
}

// program writes one logical page into the pool and returns its location.
// st selects the write stream. The caller is responsible for invalidating
// any previous location of lp. org and cause attribute the physical
// program for the wear ledger (ignored when no tracer is attached): org
// is the writer whose data this is, cause is why the FTL issued it.
func (p *gcPool) program(lp int32, data []byte, cost *Cost, reserveOK bool, st int, org wtrace.Origin, cause wtrace.Cause) (loc, error) {
	blk, page := p.stream(st)
	for attempts := 0; attempts < 8; attempts++ {
		if err := p.openFor(cost, reserveOK, st); err != nil {
			return noLoc, err
		}
		addr := nand.PageAddr{Block: *blk, Page: *page}
		*p.gseq++
		_, err := p.chip.ProgramPageOOB(addr, data, nand.OOB{LP: lp, Seq: *p.gseq, Org: uint16(org)})
		cost.Programs++
		*page++
		p.fill[addr.Block]++
		// Attribute exactly the programs the chip counted: successes and
		// program *failures* consume the page (nextPage advanced), while
		// power cuts and address errors return before the chip counts —
		// this mirroring is what keeps the ledger identity exact.
		if p.tr != nil && (err == nil || errors.Is(err, nand.ErrProgramFail)) {
			p.orgs[addr.Block*p.ppb+addr.Page] = org
			p.tr.NoteProgram(org, cause)
		}
		if err == nil {
			l := makeLoc(p.id, addr.Block, addr.Page)
			p.rmap[addr.Block*p.ppb+addr.Page] = lp
			p.valid[addr.Block]++
			return l, nil
		}
		if errors.Is(err, nand.ErrProgramFail) {
			// The page is wasted; retire the block if it keeps failing,
			// otherwise try the next page.
			p.stats.ProgramRetries++
			if *page >= p.ppb {
				continue // openFor will close it
			}
			if attempts >= 2 {
				p.retireOpen(cost, st)
			}
			continue
		}
		return noLoc, fmt.Errorf("ftl: program: %w", err)
	}
	return noLoc, fmt.Errorf("ftl: program: persistent program failures in pool %v", p.id)
}

// hasGarbage reports whether any usable block holds a superseded page.
func (p *gcPool) hasGarbage() bool {
	for b := range p.state {
		if p.state[b] != sBad && p.fill[b] > p.valid[b] {
			return true
		}
	}
	return false
}

// retireOpen relocates a stream's open block's valid pages and marks it bad.
func (p *gcPool) retireOpen(cost *Cost, st int) {
	blk, _ := p.stream(st)
	b := *blk
	*blk = -1
	p.state[b] = sFull
	p.relocateTo(b, cost, streamGC)
	p.state[b] = sBad
	p.chip.MarkBad(b)
}

// invalidate drops a physical page from the valid set.
func (p *gcPool) invalidate(l loc) {
	idx := l.block()*p.ppb + l.page()
	if p.rmap[idx] < 0 {
		return
	}
	p.rmap[idx] = -1
	p.valid[l.block()]--
}

// read returns the payload (nil for accounting-only pages) at l, stepping
// through firmware read-retry on uncorrectable results.
func (p *gcPool) read(l loc, cost *Cost) ([]byte, error) {
	a := nand.PageAddr{Block: l.block(), Page: l.page()}
	data, _, err := p.chip.ReadPage(a)
	cost.Reads++
	for r := 0; r < readRetries && errors.Is(err, nand.ErrUncorrectable); r++ {
		p.stats.ReadRetries++
		data, _, err = p.chip.ReadPage(a)
		cost.Reads++
	}
	return data, err
}

// collect reclaims full blocks until the free list reaches high water, or no
// victim remains. It never recurses: a program issued by relocation that
// finds no free block fails with ErrNoSpace instead of collecting again.
func (p *gcPool) collect(cost *Cost) error {
	if p.collecting {
		return nil
	}
	p.collecting = true
	p.collects++
	defer func() { p.collecting = false }()
	for len(p.free) < gcHighWater {
		v := p.victim()
		if v < 0 {
			if len(p.free) == 0 {
				return ErrNoSpace
			}
			return nil
		}
		p.relocate(v, cost)
		if p.lostPower {
			// Power failed mid-collection: the victim stays where it is
			// (retrying would spin forever against a dead chip) and the
			// cut surfaces to the host like any other failed operation.
			return nand.ErrPowerLoss
		}
		// Relocation may have been unable to finish (no space), or nested
		// collection may already have reclaimed v; never erase a block
		// that still holds valid pages or already left the full state.
		if p.state[v] != sFull {
			continue
		}
		if p.valid[v] != 0 {
			if len(p.free) == 0 {
				return ErrNoSpace
			}
			return nil
		}
		p.eraseToFree(v, cost)
		if p.lostPower {
			return nand.ErrPowerLoss
		}
	}
	return nil
}

// victim picks the next GC victim among full blocks, or -1 if none is
// reclaimable. Ties break toward the least-worn block, so greedy selection
// does not keep resurrecting the same blocks and silently concentrate wear.
func (p *gcPool) victim() int {
	best := -1
	var bestScore float64
	for b, s := range p.state {
		if s != sFull || b == p.relocating {
			continue
		}
		u := float64(p.valid[b]) / float64(p.ppb)
		if u >= 1 {
			continue // nothing reclaimable
		}
		var score float64
		switch p.policy {
		case GCCostBenefit:
			age := float64(p.seq - p.seqNo[b])
			score = (1 - u) / (1 + u) * (1 + age)
		default: // greedy: fewer valid pages first
			score = 1 - u
		}
		if best < 0 || score > bestScore ||
			(score == bestScore && p.chip.EraseCount(b) < p.chip.EraseCount(best)) {
			best, bestScore = b, score
		}
	}
	return best
}

// relocate copies all valid pages out of block b into the GC stream.
func (p *gcPool) relocate(b int, cost *Cost) {
	p.relocateTo(b, cost, streamGC)
}

// relocateTo copies all valid pages out of block b into the given stream.
// Each copy is attributed to the origin that owns the page being moved —
// GC and wear-leveling work is amplification *caused by* whoever wrote
// the data, which is the whole point of the ledger.
func (p *gcPool) relocateTo(b int, cost *Cost, st int) {
	prev := p.relocating
	p.relocating = b
	defer func() { p.relocating = prev }()
	cause := wtrace.CauseGC
	if st == streamWL {
		cause = wtrace.CauseWL
	}
	moved := 0
	defer func() {
		if p.tr != nil && moved > 0 {
			p.tr.EventRelocate(cause, b, moved)
		}
	}()
	base := b * p.ppb
	for pg := 0; pg < p.ppb; pg++ {
		lp := p.rmap[base+pg]
		if lp < 0 {
			continue
		}
		data, err := p.read(makeLoc(p.id, b, pg), cost)
		if err != nil {
			if errors.Is(err, nand.ErrPowerLoss) {
				// Power, not the page, failed: the data is intact on
				// flash and recovery will find it. Stop relocating.
				p.lostPower = true
				return
			}
			// Uncorrectable during GC: the data is lost; drop the
			// mapping rather than propagate garbage. Firmware logs
			// this as a grown defect.
			p.rmap[base+pg] = -1
			p.valid[b]--
			p.remap(lp, noLoc)
			continue
		}
		var org wtrace.Origin
		if p.tr != nil {
			org = p.orgs[base+pg]
		}
		nl, err := p.program(lp, data, cost, true, st, org, cause)
		if err != nil {
			// No space to relocate into: leave the page where it is.
			return
		}
		p.gcCopies++
		moved++
		p.rmap[base+pg] = -1
		p.valid[b]--
		p.remap(lp, nl)
	}
}

// eraseToFree erases b and returns it to the free list, or retires it.
func (p *gcPool) eraseToFree(b int, cost *Cost) {
	// Snapshot the page-origin extent before the erase wipes it: the
	// erase is charged to the plurality owner of the block's pages.
	programmed := 0
	if p.tr != nil {
		programmed = p.chip.ProgrammedPages(b)
	}
	_, err := p.chip.EraseBlock(b)
	cost.Erases++
	if errors.Is(err, nand.ErrPowerLoss) {
		// Nothing latched: the block is untouched, not bad. Leave it
		// full; recovery rebuilds from the chip anyway. The chip did not
		// count the erase, so neither does the ledger.
		p.lostPower = true
		p.state[b] = sFull
		return
	}
	p.erasesSinceWL++
	base := b * p.ppb
	if p.tr != nil {
		// Erase failures still count as erases on the chip, so they are
		// attributed too; only the power cut above is not.
		p.tr.EraseBlockAttrib(b, p.orgs[base:base+programmed])
		for pg := 0; pg < programmed; pg++ {
			p.orgs[base+pg] = 0
		}
	}
	for pg := 0; pg < p.ppb; pg++ {
		p.rmap[base+pg] = -1
	}
	p.valid[b] = 0
	p.fill[b] = 0
	if err != nil {
		p.state[b] = sBad
		p.chip.MarkBad(b)
		return
	}
	// Proactive retirement: firmware takes blocks whose error rate has
	// grown too close to the ECC capability out of service.
	if p.chip.ShouldRetire(b) {
		p.state[b] = sBad
		p.chip.MarkBad(b)
		return
	}
	p.state[b] = sFree
	p.free = append(p.free, b)
}

// maybeStaticWL runs static wear-leveling when due: if the erase-count
// spread exceeds the threshold, the coldest full block's data is relocated
// so the block rejoins the rotation. The FTL calls this from the host write
// path only, never from GC, so it cannot re-enter relocation.
func (p *gcPool) maybeStaticWL(cost *Cost) {
	if p.noWL || p.erasesSinceWL < staticWLInterval {
		return
	}
	p.erasesSinceWL = 0
	cold, hot := -1, -1
	for b, s := range p.state {
		if s == sBad {
			continue
		}
		if cold < 0 || p.chip.EraseCount(b) < p.chip.EraseCount(cold) {
			if s == sFull {
				cold = b
			}
		}
		if hot < 0 || p.chip.EraseCount(b) > p.chip.EraseCount(hot) {
			hot = b
		}
	}
	if cold < 0 || hot < 0 {
		return
	}
	if p.chip.EraseCount(hot)-p.chip.EraseCount(cold) <= staticWLThreshold {
		return
	}
	p.relocateTo(cold, cost, streamWL)
	if p.state[cold] == sFull && p.valid[cold] == 0 {
		p.eraseToFree(cold, cost)
	}
}
