package ftl

import (
	"errors"

	"flashwear/internal/nand"
	"flashwear/internal/wtrace"
)

// pageMap is one chip's physical-page bookkeeping: which logical page each
// physical page holds, how many live pages each block has, and which
// origin wrote each page. Both pools embed one and keep only their own
// allocation policy on top — the main pool's write streams, free list and
// GC/wear-leveling, the cache's FIFO ring — so a page is programmed, read,
// invalidated, lost and erased the same way whichever pool holds it.
type pageMap struct {
	id   PoolID
	chip *nand.Chip
	ppb  int

	rmap  []int32 // physical page index -> logical page, -1 if dead/free
	valid []int32 // valid pages per block

	// tr/orgs are the wear-attribution hooks (internal/wtrace): orgs
	// mirrors rmap with the origin that last programmed each physical
	// page, so relocations and erases can be charged to the writer whose
	// data caused them. Both nil when tracing is off.
	tr   *wtrace.Tracer
	orgs []wtrace.Origin

	// gseq points at the FTL's global OOB sequence counter, stats at its
	// Stats block, and remap tells it a logical page moved or was lost.
	// All three are owned by the FTL; dummies when a pool is tested
	// standalone.
	gseq  *int64
	stats *Stats
	remap func(lp int32, l loc)
}

func newPageMap(id PoolID, chip *nand.Chip) pageMap {
	g := chip.Geometry()
	return pageMap{
		id:    id,
		chip:  chip,
		ppb:   g.PagesPerBlock,
		rmap:  make([]int32, g.Blocks()*g.PagesPerBlock),
		valid: make([]int32, g.Blocks()),
		gseq:  new(int64),
		stats: new(Stats),
		remap: func(int32, loc) {},
	}
}

// programAt programs lp's data into the erased page at l, stamping the OOB
// record, and maps it there on success. org and cause attribute the
// program for the wear ledger (ignored when no tracer is attached): org is
// the writer whose data this is, cause is why the FTL issued it. A program
// failure consumes the page and counts a retry; the caller picks the next.
func (m *pageMap) programAt(l loc, lp int32, data []byte, cost *Cost, org wtrace.Origin, cause wtrace.Cause) error {
	i := l.block()*m.ppb + l.page()
	*m.gseq++
	_, err := m.chip.ProgramPageOOB(nand.PageAddr{Block: l.block(), Page: l.page()}, data,
		nand.OOB{LP: lp, Seq: *m.gseq, Org: uint16(org)})
	cost.Programs++
	failed := err != nil && errors.Is(err, nand.ErrProgramFail)
	// Attribute exactly the programs the chip counted: successes and
	// program *failures* consume the page, while power cuts and address
	// errors return before the chip counts — this mirroring is what keeps
	// the ledger identity exact.
	if m.tr != nil && (err == nil || failed) {
		m.orgs[i] = org
		m.tr.NoteProgram(org, cause)
	}
	if err == nil {
		m.rmap[i] = lp
		m.valid[l.block()]++
	} else if failed {
		m.stats.ProgramRetries++
	}
	return err
}

// read returns the payload (nil for accounting-only pages) at l, stepping
// through firmware read-retry on uncorrectable results.
func (m *pageMap) read(l loc, cost *Cost) ([]byte, error) {
	a := nand.PageAddr{Block: l.block(), Page: l.page()}
	data, _, err := m.chip.ReadPage(a)
	cost.Reads++
	for r := 0; r < readRetries && errors.Is(err, nand.ErrUncorrectable); r++ {
		m.stats.ReadRetries++
		data, _, err = m.chip.ReadPage(a)
		cost.Reads++
	}
	return data, err
}

// invalidate drops a physical page from the valid set.
func (m *pageMap) invalidate(l loc) {
	i := l.block()*m.ppb + l.page()
	if m.rmap[i] < 0 {
		return
	}
	m.rmap[i] = -1
	m.valid[l.block()]--
}

// lose drops the live page at l, whose data an uncorrectable read
// destroyed while GC, wear-leveling or the cache drain moved it, and
// unmaps its logical page: it reads as unmapped until the next Recover,
// and the FTL counts it in LostPages. Firmware logs this as a grown
// defect rather than propagate garbage.
func (m *pageMap) lose(l loc) {
	lp := m.rmap[l.block()*m.ppb+l.page()]
	m.invalidate(l)
	m.remap(lp, noLoc)
}

// erase erases block b and drops its pages. A power cut leaves the block
// and its pages untouched and is returned; so is an erase failure, after
// which the pages are gone and the caller retires the block.
func (m *pageMap) erase(b int, cost *Cost) error {
	// Snapshot the page-origin extent before the erase wipes it: the
	// erase is charged to the plurality owner of the block's pages.
	programmed := 0
	if m.tr != nil {
		programmed = m.chip.ProgrammedPages(b)
	}
	_, err := m.chip.EraseBlock(b)
	cost.Erases++
	if errors.Is(err, nand.ErrPowerLoss) {
		// Nothing latched, and the chip did not count the erase, so
		// neither does the ledger.
		return err
	}
	base := b * m.ppb
	if m.tr != nil {
		// Erase failures still count as erases on the chip, so they are
		// attributed too; only the power cut above is not.
		m.tr.EraseBlockAttrib(b, m.orgs[base:base+programmed])
		clear(m.orgs[base : base+programmed])
	}
	for pg := 0; pg < m.ppb; pg++ {
		m.rmap[base+pg] = -1
	}
	m.valid[b] = 0
	return err
}

// unmap drops every mapping, for an OOB scan to repopulate.
func (m *pageMap) unmap() {
	for i := range m.rmap {
		m.rmap[i] = -1
	}
	clear(m.valid)
}
