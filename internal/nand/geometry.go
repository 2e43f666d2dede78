package nand

import "fmt"

// Geometry describes the physical layout of a NAND chip. The hierarchy is
// Chip → Die → Plane → Block → Page; pages are the program/read unit and
// blocks the erase unit (§2.1).
type Geometry struct {
	Dies           int // independent dies on the package
	PlanesPerDie   int // planes that can operate concurrently within a die
	BlocksPerPlane int
	PagesPerBlock  int
	PageSize       int // user-data bytes per page
	SpareSize      int // out-of-band bytes per page (ECC parity, metadata)
}

// Validate reports an error describing the first invalid field, if any.
func (g Geometry) Validate() error {
	switch {
	case g.Dies <= 0:
		return fmt.Errorf("nand: geometry: Dies = %d, want > 0", g.Dies)
	case g.PlanesPerDie <= 0:
		return fmt.Errorf("nand: geometry: PlanesPerDie = %d, want > 0", g.PlanesPerDie)
	case g.BlocksPerPlane <= 0:
		return fmt.Errorf("nand: geometry: BlocksPerPlane = %d, want > 0", g.BlocksPerPlane)
	case g.PagesPerBlock <= 0:
		return fmt.Errorf("nand: geometry: PagesPerBlock = %d, want > 0", g.PagesPerBlock)
	case g.PageSize <= 0 || g.PageSize%512 != 0:
		return fmt.Errorf("nand: geometry: PageSize = %d, want positive multiple of 512", g.PageSize)
	case g.SpareSize < 0:
		return fmt.Errorf("nand: geometry: SpareSize = %d, want >= 0", g.SpareSize)
	}
	return nil
}

// Planes returns the total number of planes on the chip, which bounds the
// number of concurrent program operations (the parallelism behind Figure 1's
// bandwidth scaling).
func (g Geometry) Planes() int { return g.Dies * g.PlanesPerDie }

// Blocks returns the total number of erase blocks on the chip.
func (g Geometry) Blocks() int { return g.Planes() * g.BlocksPerPlane }

// PageAddr identifies a page by block index and page offset within the block.
type PageAddr struct {
	Block int
	Page  int
}

// String implements fmt.Stringer.
func (a PageAddr) String() string { return fmt.Sprintf("blk%d/pg%d", a.Block, a.Page) }
