package ftl

import (
	"fmt"

	"flashwear/internal/nand"
)

// GCPolicy selects the garbage-collection victim policy.
type GCPolicy int

const (
	// GCGreedy picks the full block with the fewest valid pages — minimal
	// copy work now, the common choice in simple mobile controllers.
	GCGreedy GCPolicy = iota
	// GCCostBenefit weighs reclaimable space against block age
	// (Rosenblum-style (1-u)/(1+u) * age), better under skewed workloads.
	GCCostBenefit
)

// String implements fmt.Stringer.
func (p GCPolicy) String() string {
	switch p {
	case GCGreedy:
		return "greedy"
	case GCCostBenefit:
		return "cost-benefit"
	default:
		return fmt.Sprintf("GCPolicy(%d)", int(p))
	}
}

// Firmware constants: one value each in every device the stack models.
const (
	// gcHighWater is the free-block count per pool a collection restores.
	gcHighWater = 8
	// readRetries is how many times the firmware re-reads a page after an
	// uncorrectable result before giving up — real controllers step
	// through read-retry voltage tables the same way.
	readRetries = 2
	// Static wear-leveling runs every staticWLInterval erases and relocates
	// the coldest block's data when the spread between the most- and
	// least-erased blocks exceeds staticWLThreshold cycles.
	staticWLThreshold = 64
	staticWLInterval  = 256
	// routeMaxBytes: only host writes of at most this many bytes are routed
	// through the cache pool; larger writes stream directly to Type B.
	routeMaxBytes = 64 << 10
	// drainWatermark is the cache utilisation above which draining starts.
	drainWatermark = 0.7
	// mergeFragmentation is the second merge condition (§4.3: "highly
	// utilized and fragmented"): the fraction of live main-pool data that
	// shares a block with dead pages.
	mergeFragmentation = 0.4
)

// HybridConfig describes the two-pool layout of hybrid devices.
type HybridConfig struct {
	// CacheChip is the Type A chip configuration (small, high-endurance).
	CacheChip nand.Config
	// DrainRatio is the number of cache pages migrated to Type B per host
	// page written while the cache is under pressure. Under sustained
	// load, this is the fraction of host traffic the cache absorbs (the
	// rest bypasses to Type B). Defaults to 0.08, calibrated to Table 1's
	// ~6x Type A / Type B wear ratio before merging.
	DrainRatio float64
	// MergeUtilisation: when the exported logical space is this utilised,
	// the firmware merges the pools — Type A stops bypassing and absorbs
	// all routed writes as ordinary storage (§4.3's inference). Defaults
	// to 0.85. Set above 1 to disable merging (ablation).
	MergeUtilisation float64
}

// Config assembles an FTL instance.
type Config struct {
	// MainChip is the Type B (or only) chip configuration.
	MainChip nand.Config
	// Hybrid, when non-nil, adds a Type A cache pool.
	Hybrid *HybridConfig
	// OverProvision is the fraction of main-pool capacity withheld from
	// the exported logical space. Defaults to 0.07 (~7%, the typical
	// binary/decimal gigabyte gap).
	OverProvision float64
	// GC selects the victim policy.
	GC GCPolicy
	// NoWearLeveling turns off both wear-leveling mechanisms (§2.2's
	// primary lifetime-extension direction): dynamic allocation of the
	// least-worn free block, and static relocation of cold data out of
	// barely-worn blocks.
	NoWearLeveling bool
	// FirmwareRatedPE, when > 0, overrides the per-chip rated endurance
	// used as the *denominator of the life-time estimate* (vendors apply
	// margins; the cells and the indicator need not agree). Zero means
	// use each chip's rated P/E.
	FirmwareRatedPE int
	// BrickAtEOL restores the legacy behaviour the paper describes for the
	// BLU phones: when space is exhausted the device hard-bricks
	// (ErrBricked) instead of degrading to JEDEC-style read-only mode.
	BrickAtEOL bool
}

func (c *Config) setDefaults() {
	if c.OverProvision == 0 {
		c.OverProvision = 0.07
	}
	if c.Hybrid != nil {
		if c.Hybrid.DrainRatio == 0 {
			c.Hybrid.DrainRatio = 0.08
		}
		if c.Hybrid.MergeUtilisation == 0 {
			c.Hybrid.MergeUtilisation = 0.85
		}
	}
}

func (c *Config) validate() error {
	switch {
	case c.OverProvision < 0 || c.OverProvision >= 0.5:
		return fmt.Errorf("ftl: OverProvision = %g, want [0, 0.5)", c.OverProvision)
	case c.GC != GCGreedy && c.GC != GCCostBenefit:
		return fmt.Errorf("ftl: unknown GC policy %d", c.GC)
	}
	if c.Hybrid != nil {
		h := c.Hybrid
		switch {
		case h.DrainRatio <= 0 || h.DrainRatio > 1:
			return fmt.Errorf("ftl: hybrid DrainRatio = %g, want (0, 1]", h.DrainRatio)
		case h.MergeUtilisation <= 0:
			return fmt.Errorf("ftl: hybrid MergeUtilisation = %g, want > 0", h.MergeUtilisation)
		}
	}
	return nil
}
