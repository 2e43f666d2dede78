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
	pageMap

	state []blockState
	fill  []int32 // pages programmed per block since erase (dead = fill-valid)
	seqNo []int64 // fill sequence, for cost-benefit aging

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

	gcCopies int64 // pages moved by GC and wear-leveling
	// collects counts GC invocations (collect calls that did work).
	collects int64

	// lostPower is set when an internal operation (GC read/erase) saw
	// power drop, for paths that cannot propagate an error.
	lostPower bool
}

func newGCPool(id PoolID, chip *nand.Chip, cfg *Config) *gcPool {
	nb := chip.Geometry().Blocks()
	p := &gcPool{
		pageMap: newPageMap(id, chip),
		state:   make([]blockState, nb),
		fill:    make([]int32, nb),
		seqNo:   make([]int64, nb),
		free:    make([]int, 0, nb),
		policy:  cfg.GC,
		noWL:    cfg.NoWearLeveling,
		reserve: 2,
	}
	p.rebuildFromChip()
	return p
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

// openFor gives a stream whose block is full, or that has none, an open
// block with a free page. reserveOK lets GC relocation dip into the
// reserve blocks.
func (p *gcPool) openFor(cost *Cost, reserveOK bool, st int) error {
	blk, page := p.stream(st)
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
// any previous location of lp. org and cause attribute the program, as in
// pageMap.programAt.
func (p *gcPool) program(lp int32, data []byte, cost *Cost, reserveOK bool, st int, org wtrace.Origin, cause wtrace.Cause) (loc, error) {
	blk, page := p.stream(st)
	for attempts := 0; attempts < 8; attempts++ {
		// Checked here, not in openFor, so that a page program into an
		// open block costs no more calls than programAt's.
		if *blk < 0 || *page >= p.ppb {
			if err := p.openFor(cost, reserveOK, st); err != nil {
				return noLoc, err
			}
		}
		l := makeLoc(p.id, *blk, *page)
		*page++
		p.fill[*blk]++
		err := p.programAt(l, lp, data, cost, org, cause)
		if err == nil {
			return l, nil
		}
		if errors.Is(err, nand.ErrProgramFail) {
			// The page is wasted; retire the block if it keeps failing,
			// otherwise try the next page.
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
//
// Greedy's score, 1 - valid/ppb, falls strictly as valid rises, so its scan
// compares valid counts directly: fewest valid pages, then fewest erases,
// then lowest index — the block the score would pick.
func (p *gcPool) victim() int {
	if p.policy == GCCostBenefit {
		return p.costBenefitVictim()
	}
	best := -1
	bestValid := int32(p.ppb)
	for b, s := range p.state {
		if s != sFull || b == p.relocating {
			continue
		}
		v := p.valid[b]
		if v < bestValid || (v == bestValid && best >= 0 && p.chip.EraseCount(b) < p.chip.EraseCount(best)) {
			best, bestValid = b, v
		}
	}
	return best
}

// costBenefitVictim is victim under GCCostBenefit: the highest
// (1-u)/(1+u)·(1+age), where u is the block's valid fraction.
func (p *gcPool) costBenefitVictim() int {
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
		age := float64(p.seq - p.seqNo[b])
		score := (1 - u) / (1 + u) * (1 + age)
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
		l := makeLoc(p.id, b, pg)
		data, err := p.read(l, cost)
		if err != nil {
			if errors.Is(err, nand.ErrPowerLoss) {
				// Power, not the page, failed: the data is intact on
				// flash and recovery will find it. Stop relocating.
				p.lostPower = true
				return
			}
			p.lose(l)
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
		p.invalidate(l)
		p.remap(lp, nl)
	}
}

// eraseToFree erases b and returns it to the free list, or retires it.
func (p *gcPool) eraseToFree(b int, cost *Cost) {
	err := p.erase(b, cost)
	if errors.Is(err, nand.ErrPowerLoss) {
		// Nothing latched: the block is untouched, not bad. Leave it
		// full; recovery rebuilds from the chip anyway.
		p.lostPower = true
		p.state[b] = sFull
		return
	}
	p.erasesSinceWL++
	p.fill[b] = 0
	// Firmware retires a block whose erase failed, and proactively one
	// whose error rate has grown too close to the ECC capability.
	if err != nil || p.chip.ShouldRetire(b) {
		p.state[b] = sBad
		p.chip.MarkBad(b)
		return
	}
	p.state[b] = sFree
	p.free = append(p.free, b)
}

// maybeStaticWL runs static wear-leveling when due. The FTL calls this
// from the host write path only, never from GC, so it cannot re-enter
// relocation. The check inlines into the caller; the scan is staticWL.
func (p *gcPool) maybeStaticWL(cost *Cost) {
	if p.noWL || p.erasesSinceWL < staticWLInterval {
		return
	}
	p.staticWL(cost)
}

// staticWL is maybeStaticWL when due: if the erase-count spread exceeds
// the threshold, the coldest full block's data is relocated so the block
// rejoins the rotation.
func (p *gcPool) staticWL(cost *Cost) {
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
