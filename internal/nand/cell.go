// Package nand models raw NAND flash: dies, planes, blocks, pages and the
// physics that matter for endurance — program/erase wear, bit-error growth
// with P/E cycles, retention loss, program failures, and (optionally) charge
// detrapping ("healing").
//
// The model is deliberately at the level of abstraction the paper reasons at:
// a cell population per block with an error rate that grows with accumulated
// program/erase stress, read through an ECC whose correction capability
// defines the usable endurance of the block. Payload bytes are stored only
// when callers provide them, so wear experiments can run "accounting-only"
// at device scale while file-system tests run data-bearing on small chips.
package nand

import "fmt"

// CellType describes how many bits a cell stores. Denser cells discriminate
// between more charge levels and therefore tolerate far fewer P/E cycles —
// the trend the paper warns "will exacerbate this problem".
type CellType int

const (
	// SLC stores one bit per cell. Historic parts reached ~100K P/E cycles.
	SLC CellType = iota + 1
	// MLC stores two bits per cell; typical rated endurance 3K–10K cycles.
	MLC
	// TLC stores three bits per cell; endurance as low as ~1K cycles.
	TLC
)

// String implements fmt.Stringer.
func (t CellType) String() string {
	switch t {
	case SLC:
		return "SLC"
	case MLC:
		return "MLC"
	case TLC:
		return "TLC"
	default:
		return fmt.Sprintf("CellType(%d)", int(t))
	}
}

// DefaultRatedPE returns a typical vendor-rated P/E cycle count for the cell
// type, matching the figures quoted in §2.1 of the paper.
func (t CellType) DefaultRatedPE() int {
	switch t {
	case SLC:
		return 100_000
	case MLC:
		return 3_000
	case TLC:
		return 1_000
	default:
		return 0
	}
}

// Valid reports whether t is a known cell type.
func (t CellType) Valid() bool { return t >= SLC && t <= TLC }
