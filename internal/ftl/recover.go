package ftl

import (
	"fmt"

	"flashwear/internal/nand"
	"flashwear/internal/wtrace"
)

// CutPower marks the FTL as having lost power without any chip operation
// observing it (the cut happened between operations). Every volatile
// structure is considered garbage from this point; only Recover brings the
// FTL back.
func (f *FTL) CutPower() {
	f.powerLost = true
}

// Recover rebuilds all volatile FTL state from the persistent chips after a
// power loss — the remount path. The logical→physical map is reconstructed
// by scanning per-page OOB metadata: every program stamped its logical page
// number and a global sequence number into the spare area, so the live copy
// of each logical page is simply the one with the highest sequence. This is
// the standard log-structured recovery argument; no separate journal exists
// or is needed.
//
// Cost reflects the scan (one read per programmed page). Recover never
// fails on a powered chip: OOB reads are spare-area reads below ECC, and
// pages whose program was interrupted carry no metadata and are skipped.
func (f *FTL) Recover() (Cost, error) {
	var cost Cost
	f.dropVolatile()

	// Scan both chips' OOB metadata and pick the highest-sequence copy of
	// each logical page.
	if f.bestSeq == nil {
		f.bestSeq = make([]int64, f.logicalPages)
		f.bestLoc = make([]loc, f.logicalPages)
	}
	bestSeq, bestLoc := f.bestSeq, f.bestLoc
	clear(bestSeq)
	for i := range bestLoc {
		bestLoc[i] = noLoc
	}
	f.scanPool(&f.main.pageMap, bestSeq, bestLoc, f.main.seqNo, &cost)
	if f.cache != nil {
		f.scanPool(&f.cache.pageMap, bestSeq, bestLoc, nil, &cost)
	}

	// Install the winners.
	for lp, l := range bestLoc {
		if l == noLoc {
			continue
		}
		f.l2p[lp] = l
		f.validLogical++
		m := f.pageMap(l.pool())
		m.rmap[l.block()*m.ppb+l.page()] = int32(lp)
		m.valid[l.block()]++
	}
	// The pool's aging sequence resumes above everything seen on flash.
	f.main.seq = f.gseq

	f.powerLost = false
	f.stats.Recoveries++
	return cost, nil
}

// dropVolatile drops every volatile structure: the mapping and the mode
// flags are cleared, and the pools' tables rebuilt from what the chips
// record, for an OOB scan to repopulate.
func (f *FTL) dropVolatile() {
	for i := range f.l2p {
		f.l2p[i] = noLoc
	}
	f.validLogical = 0
	f.drainDebt = 0
	f.merged = false
	f.fragCached = 0
	f.fragCountdown = 0
	f.bricked = false
	f.readOnly = false
	f.gseq = 0
	f.main.rebuildFromChip()
	if f.cache != nil {
		f.cache.rebuildFromChip()
	}
}

// scanPool walks every programmed page of a pool's chip, reading OOB
// metadata and folding it into the per-logical-page winner tables.
// blockSeq, when non-nil, receives the highest sequence seen per block (GC
// aging).
func (f *FTL) scanPool(m *pageMap, bestSeq []int64, bestLoc []loc, blockSeq []int64, cost *Cost) {
	// Wear-attribution tags are part of the OOB record, so page ownership
	// survives power loss the same way the mapping does. (Pages of failed
	// programs carry no OOB; their in-RAM attribution, made at program
	// time, is left alone.)
	chip, ppb, orgs := m.chip, m.ppb, m.orgs
	for b := 0; b < chip.Geometry().Blocks(); b++ {
		if chip.Bad(b) {
			continue
		}
		n := chip.ProgrammedPages(b)
		for pg := 0; pg < n; pg++ {
			cost.Reads++
			oob, ok := chip.ReadOOB(nand.PageAddr{Block: b, Page: pg})
			if !ok {
				continue // interrupted or failed program: no metadata
			}
			if orgs != nil {
				orgs[b*ppb+pg] = wtrace.Origin(oob.Org)
			}
			if oob.Seq > f.gseq {
				f.gseq = oob.Seq
			}
			if blockSeq != nil && oob.Seq > blockSeq[b] {
				blockSeq[b] = oob.Seq
			}
			lp := int(oob.LP)
			if lp < 0 || lp >= f.logicalPages {
				continue
			}
			if oob.Seq > bestSeq[lp] {
				bestSeq[lp] = oob.Seq
				bestLoc[lp] = makeLoc(m.id, b, pg)
			}
		}
	}
}

// rebuildFromChip resets a gcPool's volatile structures to match the
// persistent chip: bad and free blocks from the chip's own records,
// mappings cleared for the OOB scan to repopulate. Partially programmed
// blocks are reopened as stream cursors at their first erased page — NAND
// programs in page order, so the remainder of an interrupted open block is
// still perfectly usable, and forfeiting it on every cut would let repeated
// power loss bleed the pool's free-page margin away until GC has no room
// left to relocate into.
func (p *gcPool) rebuildFromChip() {
	nb := len(p.state)
	p.free = p.free[:0]
	p.openBlk = [3]int{-1, -1, -1}
	p.openPage = [3]int{0, 0, 0}
	p.seq = 0
	p.collecting = false
	p.relocating = -1
	p.lostPower = false
	p.erasesSinceWL = 0
	p.unmap()
	reopened := 0
	for b := 0; b < nb; b++ {
		p.seqNo[b] = 0
		programmed := p.chip.ProgrammedPages(b)
		switch {
		case p.chip.Bad(b):
			p.state[b] = sBad
			p.fill[b] = 0
		case programmed == 0:
			p.state[b] = sFree
			p.fill[b] = 0
			p.free = append(p.free, b)
		case programmed < p.ppb && reopened < len(p.openBlk):
			// Block order is deterministic, so which partial block lands
			// on which stream is a pure function of the flash state.
			p.state[b] = sOpen
			p.fill[b] = int32(programmed)
			p.openBlk[reopened] = b
			p.openPage[reopened] = programmed
			reopened++
		default:
			p.state[b] = sFull
			p.fill[b] = int32(programmed)
		}
	}
}

// rebuildFromChip resets the cache ring to match the persistent chip. The
// cache is a FIFO log, so the blocks holding data always form one
// contiguous arc of the ring: its start becomes the drain tail, its end the
// write head. Pages the previous incarnation already drained re-drain
// harmlessly — their main-pool copies carry higher sequence numbers, so the
// OOB scan has already marked the cache copies dead.
func (c *cachePool) rebuildFromChip() {
	g := c.chip.Geometry()
	c.ring = c.ring[:0]
	for b := 0; b < g.Blocks(); b++ {
		if !c.chip.Bad(b) {
			c.ring = append(c.ring, b)
		}
	}
	c.unmap()
	c.head, c.tail, c.used = 0, 0, 0
	c.headPage, c.tailPage = 0, 0
	n := len(c.ring)
	if n == 0 {
		return
	}
	if cap(c.filled) < n {
		c.filled = make([]bool, n)
	}
	filled := c.filled[:n]
	clear(filled)
	arcLen := 0
	for i, b := range c.ring {
		if c.chip.ProgrammedPages(b) > 0 {
			filled[i] = true
			arcLen++
		}
	}
	if arcLen == 0 {
		return
	}
	start := 0
	if arcLen < n {
		for i := 0; i < n; i++ {
			if filled[i] && !filled[(i-1+n)%n] {
				start = i
				break
			}
		}
	}
	end := (start + arcLen - 1) % n
	if !contiguousArc(filled, start, arcLen) {
		// Should not happen for a FIFO log; fall back to draining
		// everything from the lowest filled position.
		for i := 0; i < n; i++ {
			if filled[i] {
				start = i
				break
			}
		}
		end = start
		for i := 0; i < n; i++ {
			if filled[i] {
				end = i
			}
		}
		arcLen = (end-start+n)%n + 1
	}
	c.tail = start
	c.head = end
	c.used = arcLen - 1
	c.headPage = c.chip.ProgrammedPages(c.ring[end])
	c.tailPage = 0
}

// contiguousArc reports whether the filled positions are exactly the arc
// [start, start+length) mod len(filled).
func contiguousArc(filled []bool, start, length int) bool {
	n := len(filled)
	count := 0
	for _, f := range filled {
		if f {
			count++
		}
	}
	if count != length {
		return false
	}
	for i := 0; i < length; i++ {
		if !filled[(start+i)%n] {
			return false
		}
	}
	return true
}

// String implements fmt.Stringer for debugging recovery traces.
func (s Stats) String() string {
	return fmt.Sprintf("host=%dw/%dr gc=%d drain=%d lost=%d retries=%dr/%dp recoveries=%d",
		s.HostPagesWritten, s.HostPagesRead, s.GCCopies, s.DrainMigrations,
		s.LostPages, s.ReadRetries, s.ProgramRetries, s.Recoveries)
}
