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
	pageMap

	ring []int // usable block indices in ring order (bad blocks removed)
	head int   // ring position being filled
	tail int   // ring position being drained
	used int   // blocks in [tail, head] holding data (head inclusive once written)

	headPage int // next free page in the head block
	tailPage int // next page to scan in the tail block

	// filled is rebuildFromChip's scratch: which ring positions hold data.
	filled []bool
}

func newCachePool(chip *nand.Chip) *cachePool {
	c := &cachePool{
		pageMap: newPageMap(PoolA, chip),
		ring:    make([]int, 0, chip.Geometry().Blocks()),
	}
	c.rebuildFromChip()
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
		l := makeLoc(PoolA, c.ring[c.head], c.headPage)
		c.headPage++
		err := c.programAt(l, lp, data, cost, org, wtrace.CauseHost)
		if err == nil {
			return l, nil
		}
		if !errors.Is(err, nand.ErrProgramFail) {
			return noLoc, err
		}
		// The page is wasted; try the next slot.
	}
	return noLoc, ErrNoSpace
}

// drainOne advances the tail scan by one page. If that page is still valid,
// it returns its logical page, payload, and owning origin for the owner to
// rewrite into the main pool; otherwise (dead page, a page lost to an
// uncorrectable read, or nothing to drain) it returns lp = -1. Fully
// scanned tail blocks are erased and rejoin the ring.
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
		l := makeLoc(PoolA, b, c.tailPage)
		data, err = c.read(l, cost)
		if err != nil {
			if errors.Is(err, nand.ErrPowerLoss) {
				// Power failed, not the page: leave everything in place
				// for recovery and report the cut.
				return -1, nil, 0, err
			}
			c.lose(l)
			lp, data, org = -1, nil, 0
		}
	}
	c.tailPage++
	return lp, data, org, nil
}

// eraseTail erases the fully scanned tail block and advances the tail. A
// power cut leaves the block, its pages, and the tail cursor untouched.
func (c *cachePool) eraseTail(cost *Cost) error {
	b := c.ring[c.tail]
	err := c.erase(b, cost)
	if errors.Is(err, nand.ErrPowerLoss) {
		c.tailPage = c.ppb // resume here after recovery-less restarts
		return err
	}
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
