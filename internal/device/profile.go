// Package device models complete mobile storage devices — eMMC and UFS
// packages and MicroSD cards — by combining a NAND chip (or two, for hybrid
// parts), the FTL, and a controller timing model. Profiles calibrated to the
// paper's seven evaluation devices reproduce both the bandwidth curves of
// Figure 1 and the wear-out magnitudes of Figures 2–4 and Table 1.
package device

import (
	"fmt"
	"time"

	"flashwear/internal/faultinject"
	"flashwear/internal/nand"
)

// Kind is the storage interface family.
type Kind int

const (
	KindEMMC Kind = iota // soldered-down managed NAND, page-mapped FTL
	KindUFS              // eMMC's successor: faster interface, deeper parallelism
	KindUSD              // removable MicroSD: tiny controller, block-mapped FTL
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindEMMC:
		return "eMMC"
	case KindUFS:
		return "UFS"
	case KindUSD:
		return "uSD"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// HybridProfile describes a Type A (SLC-mode) cache in front of the main
// array.
type HybridProfile struct {
	// CacheBytes is the Type A capacity.
	CacheBytes int64
	// CacheRatedPE is Type A's rated endurance.
	CacheRatedPE int
	// DrainRatio is the cache-to-main migration budget in pages per host
	// page under sustained load; it sets the fraction of traffic the
	// cache absorbs before the pools merge (Table 1's ~6x wear ratio).
	DrainRatio float64
	// MergeUtilisation is the exported-space utilisation beyond which the
	// firmware merges the pools (§4.3).
	MergeUtilisation float64
}

// Profile is a calibrated device description. All capacities are user-data
// bytes; the geometry is derived.
type Profile struct {
	Name string
	Kind Kind

	// Flash array.
	CapacityBytes int64
	Cell          nand.CellType
	RatedPE       int // actual cell endurance the wear physics uses
	PageSize      int
	PagesPerBlock int
	Parallelism   int // concurrently programmable planes (bandwidth width)

	// FTL behaviour.
	OverProvision   float64
	FirmwareRatedPE int // life-time indicator denominator (0 = RatedPE)
	WearLeveling    bool
	Hybrid          *HybridProfile

	// Controller and interface timing.
	CmdOverhead   time.Duration // per-request controller/command latency
	InterfaceMBps float64       // host interface bandwidth
	ProgramTime   time.Duration // per-page program (0 = cell default)

	// Block-mapped quirks (MicroSD): a non-append write inside an
	// allocation unit forces the controller to copy the whole AU.
	AllocationUnit int64

	// HealPerIdleHour enables the self-healing extension (§2.2: "flash
	// can heal as trapped charge dissipates"): each block recovers this
	// many effective P/E cycles per simulated hour it sits idle between
	// erases. Zero (the default, and reality for shipping firmware)
	// disables it.
	HealPerIdleHour float64

	// UnreliableIndicator mimics the two BLU budget phones whose eMMC
	// "did not provide reliable wear-out indications": the life-time
	// registers read as garbage even while the device wears normally.
	UnreliableIndicator bool

	// BrickAtEOL makes endurance exhaustion a hard brick (the paper's BLU
	// phones) instead of the default JEDEC-style read-only retirement.
	BrickAtEOL bool

	// Faults, when non-nil and non-empty, attaches a deterministic fault
	// injector (transient read errors, program/erase failures, power
	// cuts) to the device's chips. Nil costs the hot path nothing.
	Faults *faultinject.Plan

	// Seed makes the device deterministic.
	Seed int64
}

// Validate reports the first invalid field.
func (p Profile) Validate() error {
	switch {
	case p.CapacityBytes <= 0:
		return fmt.Errorf("device: %s: CapacityBytes = %d", p.Name, p.CapacityBytes)
	case !p.Cell.Valid():
		return fmt.Errorf("device: %s: invalid cell type", p.Name)
	case p.RatedPE <= 0:
		return fmt.Errorf("device: %s: RatedPE = %d", p.Name, p.RatedPE)
	case p.PageSize <= 0 || p.PageSize%512 != 0:
		return fmt.Errorf("device: %s: PageSize = %d", p.Name, p.PageSize)
	case p.PagesPerBlock <= 0:
		return fmt.Errorf("device: %s: PagesPerBlock = %d", p.Name, p.PagesPerBlock)
	case p.Parallelism <= 0:
		return fmt.Errorf("device: %s: Parallelism = %d", p.Name, p.Parallelism)
	case p.InterfaceMBps <= 0:
		return fmt.Errorf("device: %s: InterfaceMBps = %g", p.Name, p.InterfaceMBps)
	case p.CmdOverhead < 0:
		return fmt.Errorf("device: %s: CmdOverhead = %v", p.Name, p.CmdOverhead)
	case p.OverProvision < 0 || p.OverProvision >= 0.5:
		return fmt.Errorf("device: %s: OverProvision = %g", p.Name, p.OverProvision)
	}
	if p.Hybrid != nil && p.Hybrid.CacheBytes <= 0 {
		return fmt.Errorf("device: %s: hybrid CacheBytes = %d", p.Name, p.Hybrid.CacheBytes)
	}
	return nil
}

// Scaled returns a copy of the profile with capacity (and cache) divided by
// div, for fast experiments. Endurance, page geometry, and timing are
// untouched, so wear per *scaled* GiB and all bandwidths are preserved;
// experiment results multiply I/O volumes back by div. Scaled panics on a
// non-positive divisor.
func (p Profile) Scaled(div int64) Profile {
	if div <= 0 {
		panic(fmt.Sprintf("device: Scaled(%d): divisor must be positive", div))
	}
	blockBytes := int64(p.PageSize) * int64(p.PagesPerBlock)
	q := p
	q.CapacityBytes = p.CapacityBytes / div
	// Keep at least 64 blocks so garbage collection and its watermarks
	// have room to operate; callers must derive the effective divisor
	// from the returned capacity (see EffectiveScale).
	if min := 64 * blockBytes; q.CapacityBytes < min {
		q.CapacityBytes = min
	}
	if p.Hybrid != nil {
		h := *p.Hybrid
		h.CacheBytes = p.Hybrid.CacheBytes / div
		if min := 4 * blockBytes; h.CacheBytes < min {
			h.CacheBytes = min
		}
		q.Hybrid = &h
	}
	return q
}

// EffectiveScale returns the divisor that Scaled(div) actually achieved
// after clamping — the factor experiment results must be multiplied by.
func (p Profile) EffectiveScale(div int64) int64 {
	s := p.Scaled(div)
	eff := p.CapacityBytes / s.CapacityBytes
	if eff < 1 {
		eff = 1
	}
	return eff
}

// geometry derives the NAND geometry for a capacity.
func (p Profile) geometry(capacity int64) nand.Geometry {
	blockBytes := int64(p.PageSize) * int64(p.PagesPerBlock)
	blocks := int(capacity / blockBytes)
	planes := p.Parallelism
	if blocks < planes {
		planes = 1
	}
	bpp := blocks / planes
	if bpp < 1 {
		bpp = 1
	}
	return nand.Geometry{
		Dies:           1,
		PlanesPerDie:   planes,
		BlocksPerPlane: bpp,
		PagesPerBlock:  p.PagesPerBlock,
		PageSize:       p.PageSize,
		SpareSize:      p.PageSize / 32,
	}
}

// timing returns the cell's default chip timing with the profile's
// program time.
func (p Profile) timing() nand.Timing {
	t := nand.DefaultTiming(p.Cell)
	if p.ProgramTime > 0 {
		t.ProgramPage = p.ProgramTime
	}
	return t
}
