package ftl

import (
	"errors"

	"flashwear/internal/nand"
	"flashwear/internal/wtrace"
)

// cachePool models the small high-endurance "Type A" memory as firmware
// actually manages it in mobile parts: a circular log of SLC-mode blocks.
// Writes append at the head; a drain process scans the tail in FIFO order,
// migrating still-valid pages to the main pool and erasing fully-scanned
// blocks. There is no garbage collection — space is reclaimed strictly in
// ring order — so cache wear is proportional to the pages it absorbs, which
// is what lets Table 1's Type A / Type B wear ratio emerge from mechanism
// rather than curve fitting.
type cachePool struct {
	chip *nand.Chip
	ppb  int

	ring []int // usable block indices in ring order (bad blocks removed)
	head int   // ring position being filled
	tail int   // ring position being drained
	used int   // blocks in [tail, head] holding data (head inclusive once written)

	headPage int // next free page in the head block
	tailPage int // next page to scan in the tail block

	rmap  []int32 // physical page -> logical page, -1 if dead
	valid []int32

	// gseq / stats point at the owning FTL's sequence counter and Stats
	// block (dummies when the pool is tested standalone).
	gseq  *int64
	stats *Stats

	// tr/orgs: wear attribution, as in gcPool. orgs mirrors rmap with
	// each physical page's writing origin; nil when tracing is off.
	tr   *wtrace.Tracer
	orgs []wtrace.Origin
}

func newCachePool(chip *nand.Chip) *cachePool {
	g := chip.Geometry()
	c := &cachePool{
		chip:  chip,
		ppb:   g.PagesPerBlock,
		rmap:  make([]int32, g.Blocks()*g.PagesPerBlock),
		valid: make([]int32, g.Blocks()),
		gseq:  new(int64),
		stats: new(Stats),
	}
	for i := range c.rmap {
		c.rmap[i] = -1
	}
	for b := 0; b < g.Blocks(); b++ {
		c.ring = append(c.ring, b)
	}
	return c
}

// alive reports whether the cache still has usable blocks.
func (c *cachePool) alive() bool { return len(c.ring) >= 2 }

// pages returns the cache's total usable page count.
func (c *cachePool) pages() int { return len(c.ring) * c.ppb }

// content reports whether any block holds data awaiting drain.
func (c *cachePool) content() bool { return c.used > 0 || c.headPage > 0 }

// hasFreeSlot reports whether a write can be absorbed right now: the head
// block has a free page, or the ring has an erased block to advance into.
func (c *cachePool) hasFreeSlot() bool {
	if !c.alive() {
		return false
	}
	if c.headPage < c.ppb {
		return true
	}
	return c.used < len(c.ring)-1 // keep one block gap between head and tail
}

// program appends one page at the head. Callers must check hasFreeSlot.
// org attributes the program for the wear ledger; a cache absorb always
// carries host data, so the cause is host.
func (c *cachePool) program(lp int32, data []byte, cost *Cost, org wtrace.Origin) (loc, error) {
	for attempts := 0; attempts < 4; attempts++ {
		if !c.hasFreeSlot() {
			return noLoc, ErrNoSpace
		}
		if c.headPage >= c.ppb {
			c.head = (c.head + 1) % len(c.ring)
			c.headPage = 0
			c.used++
		}
		b := c.ring[c.head]
		addr := nand.PageAddr{Block: b, Page: c.headPage}
		*c.gseq++
		_, err := c.chip.ProgramPageOOB(addr, data, nand.OOB{LP: lp, Seq: *c.gseq, Org: uint16(org)})
		cost.Programs++
		c.headPage++
		// Same contract as gcPool.program: attribute iff the chip counted
		// (success or program failure; never power cuts).
		if c.tr != nil && (err == nil || errors.Is(err, nand.ErrProgramFail)) {
			c.orgs[b*c.ppb+addr.Page] = org
			c.tr.NoteProgram(org, wtrace.CauseHost)
		}
		if err == nil {
			c.rmap[b*c.ppb+addr.Page] = lp
			c.valid[b]++
			return makeLoc(PoolA, b, addr.Page), nil
		}
		if errors.Is(err, nand.ErrProgramFail) {
			c.stats.ProgramRetries++
			continue // page wasted; try the next slot
		}
		return noLoc, err
	}
	return noLoc, ErrNoSpace
}

// invalidate drops a cache page from the valid set.
func (c *cachePool) invalidate(l loc) {
	idx := l.block()*c.ppb + l.page()
	if c.rmap[idx] < 0 {
		return
	}
	c.rmap[idx] = -1
	c.valid[l.block()]--
}

// read returns the payload at l, with firmware read-retry.
func (c *cachePool) read(l loc, cost *Cost) ([]byte, error) {
	a := nand.PageAddr{Block: l.block(), Page: l.page()}
	data, _, err := c.chip.ReadPage(a)
	cost.Reads++
	for r := 0; r < readRetries && errors.Is(err, nand.ErrUncorrectable); r++ {
		c.stats.ReadRetries++
		data, _, err = c.chip.ReadPage(a)
		cost.Reads++
	}
	return data, err
}

// drainOne advances the tail scan by one page. If that page is still valid,
// it returns its logical page, payload, and owning origin for the owner to
// rewrite into the main pool; otherwise (dead page, or nothing to drain) it
// returns lp = -1. Fully scanned tail blocks are erased and rejoin the ring.
func (c *cachePool) drainOne(cost *Cost) (lp int32, data []byte, org wtrace.Origin, err error) {
	if c.tailPage >= c.ppb {
		// A fully scanned tail block is erased lazily, on the *next* drain
		// call: erasing it in the same call that read its last live page
		// would destroy the only flash copy of data still in RAM on its
		// way to the main pool, and a power cut in that window would lose
		// an acknowledged write.
		if err := c.eraseTail(cost); err != nil {
			return -1, nil, 0, err
		}
	}
	if !c.content() {
		return -1, nil, 0, nil
	}
	if c.used == 0 {
		// Only the head block holds data. If it is completely filled it
		// can be closed and drained like any other; a block still being
		// filled is left alone.
		if c.headPage < c.ppb || len(c.ring) < 2 {
			return -1, nil, 0, nil
		}
		c.head = (c.head + 1) % len(c.ring)
		c.headPage = 0
		c.used++
	}
	b := c.ring[c.tail]
	if c.tail == c.head {
		// Should not happen while used > 0; be safe.
		return -1, nil, 0, nil
	}
	idx := b*c.ppb + c.tailPage
	lp = c.rmap[idx]
	if lp >= 0 {
		if c.tr != nil {
			org = c.orgs[idx]
		}
		data, err = c.read(makeLoc(PoolA, b, c.tailPage), cost)
		if err != nil {
			if errors.Is(err, nand.ErrPowerLoss) {
				// Power failed, not the page: leave everything in place
				// for recovery and report the cut.
				return -1, nil, 0, err
			}
			// Uncorrectable: the page's data is lost.
			c.rmap[idx] = -1
			c.valid[b]--
			lp = -2 // signal loss to the owner
			data = nil
			org = 0
			err = nil
		}
	}
	c.tailPage++
	return lp, data, org, nil
}

// eraseTail erases the fully scanned tail block and advances the tail. A
// power cut leaves the block, its pages, and the tail cursor untouched.
func (c *cachePool) eraseTail(cost *Cost) error {
	b := c.ring[c.tail]
	programmed := 0
	if c.tr != nil {
		programmed = c.chip.ProgrammedPages(b)
	}
	_, err := c.chip.EraseBlock(b)
	cost.Erases++
	if errors.Is(err, nand.ErrPowerLoss) {
		c.tailPage = c.ppb // resume here after recovery-less restarts
		return err
	}
	base := b * c.ppb
	if c.tr != nil {
		// The chip counted this erase (even if it failed), so the ledger
		// attributes it: plurality owner of the block's pages.
		c.tr.EraseBlockAttrib(b, c.orgs[base:base+programmed])
		for pg := 0; pg < programmed; pg++ {
			c.orgs[base+pg] = 0
		}
	}
	for pg := 0; pg < c.ppb; pg++ {
		c.rmap[base+pg] = -1
	}
	c.valid[b] = 0
	pos := c.tail
	c.tail = (c.tail + 1) % len(c.ring)
	c.tailPage = 0
	c.used--
	if err != nil || c.chip.ShouldRetire(b) {
		c.chip.MarkBad(b)
		c.removeFromRing(pos)
	}
	return nil
}

// removeFromRing drops the block at ring position pos, fixing up head/tail
// positions.
func (c *cachePool) removeFromRing(pos int) {
	c.ring = append(c.ring[:pos], c.ring[pos+1:]...)
	if len(c.ring) == 0 {
		c.head, c.tail = 0, 0
		return
	}
	if c.head > pos {
		c.head--
	} else if c.head >= len(c.ring) {
		c.head = 0
	}
	if c.tail > pos {
		c.tail--
	} else if c.tail >= len(c.ring) {
		c.tail = 0
	}
}

// validPages returns the number of live pages held in the cache.
func (c *cachePool) validPages() int64 {
	var n int64
	for _, v := range c.valid {
		n += int64(v)
	}
	return n
}

// utilisation returns the fraction of cache pages holding data (valid or
// dead-but-not-yet-drained).
func (c *cachePool) utilisation() float64 {
	if !c.alive() {
		return 1
	}
	pagesInUse := c.used * c.ppb
	pagesInUse += c.headPage
	return float64(pagesInUse) / float64(c.pages())
}
