package experiments

import (
	"fmt"

	"flashwear/internal/device"
	"flashwear/internal/ftl"
	"flashwear/internal/nand"
	"flashwear/internal/simclock"
	"flashwear/internal/workload"
)

// AblationRow is one variant's outcome in a design-choice study.
type AblationRow struct {
	Variant string
	// WA is the measured write amplification.
	WA float64
	// EraseSpread is max-min erase count across blocks (wear-leveling
	// quality; lower is better).
	EraseSpread int
	// Extra holds a study-specific metric (documented per study).
	Extra float64
}

// ablationDevice builds a scaled eMMC 8GB with profile tweaks applied.
func ablationDevice(cfg Config, tweak func(*device.Profile)) (*device.Device, *simclock.Clock, int64, error) {
	prof := device.ProfileEMMC8()
	if tweak != nil {
		tweak(&prof)
	}
	return newDevice(prof, cfg.Scale)
}

// hotRewrite drives 4 KiB random rewrites over a hot region after filling
// staticFrac of the device, then reports WA and erase spread.
func hotRewrite(dev *device.Device, staticFrac float64, volumeMultiple int) (AblationRow, error) {
	if staticFrac > 0 {
		if _, err := workload.FillDevice(dev, staticFrac); err != nil {
			return AblationRow{}, err
		}
	}
	hot := workload.NewDeviceWriter(dev, 4096, false, 21)
	hot.RegionOff = int64(float64(dev.Size()) * staticFrac)
	span := dev.Size() / 20
	if hot.RegionOff+span > dev.Size() {
		span = dev.Size() - hot.RegionOff
	}
	hot.RegionLen = span

	baseProgs := dev.FTL().MainChip().Stats().Programs
	baseHost := dev.FTL().Stats().HostPagesWritten
	total := dev.Size() * int64(volumeMultiple)
	var written int64
	for written < total {
		n, err := hot.Step(4 << 20)
		written += n
		if err != nil {
			return AblationRow{}, err
		}
	}
	chip := dev.FTL().MainChip()
	minE, maxE := int(^uint(0)>>1), 0
	for b := 0; b < chip.Geometry().Blocks(); b++ {
		ec := chip.EraseCount(b)
		if ec < minE {
			minE = ec
		}
		if ec > maxE {
			maxE = ec
		}
	}
	host := dev.FTL().Stats().HostPagesWritten - baseHost
	progs := chip.Stats().Programs - baseProgs
	row := AblationRow{EraseSpread: maxE - minE}
	if host > 0 {
		row.WA = float64(progs) / float64(host)
	}
	return row, nil
}

// AblationGCPolicy compares greedy vs cost-benefit garbage collection under
// a skewed rewrite workload at 50% utilisation (DESIGN.md ablation 1).
func AblationGCPolicy(cfg Config) ([]AblationRow, error) {
	cfg = cfg.Defaults()
	var out []AblationRow
	for _, policy := range []ftl.GCPolicy{ftl.GCGreedy, ftl.GCCostBenefit} {
		row, err := gcPolicyRun(policy, cfg)
		if err != nil {
			return nil, err
		}
		row.Variant = policy.String()
		out = append(out, row)
	}
	return out, nil
}

// gcPolicyRun measures WA for one GC policy on a bare FTL.
func gcPolicyRun(policy ftl.GCPolicy, cfg Config) (AblationRow, error) {
	chipCfg := nand.Config{
		Geometry: nand.Geometry{
			Dies: 1, PlanesPerDie: 4, BlocksPerPlane: 64,
			PagesPerBlock: 64, PageSize: 4096,
		},
		Cell: nand.MLC, RatedPE: 100_000, Seed: 5,
	}
	f, err := ftl.New(ftl.Config{MainChip: chipCfg, GC: policy})
	if err != nil {
		return AblationRow{}, err
	}
	n := f.LogicalPages()
	for lp := 0; lp < n/2; lp++ {
		if _, err := f.WritePage(lp, nil, 1<<20); err != nil {
			return AblationRow{}, err
		}
	}
	// Skewed rewrites: 90% of writes to 10% of the space.
	rng := newSplitMix(99)
	for i := 0; i < n*12; i++ {
		var lp int
		if rng.next()%10 < 9 {
			lp = int(rng.next() % uint64(n/10))
		} else {
			lp = int(rng.next() % uint64(n/2))
		}
		if _, err := f.WritePage(lp, nil, 4096); err != nil {
			return AblationRow{}, err
		}
	}
	return AblationRow{WA: f.WriteAmplification()}, nil
}

// splitMix is a tiny deterministic RNG for ablation workloads.
type splitMix struct{ s uint64 }

func newSplitMix(seed uint64) *splitMix { return &splitMix{s: seed} }

func (r *splitMix) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// AblationWearLeveling compares erase spread with and without wear-leveling
// under a hot-spot workload (DESIGN.md ablation 2).
func AblationWearLeveling(cfg Config) ([]AblationRow, error) {
	cfg = cfg.Defaults()
	var out []AblationRow
	for _, wl := range []bool{true, false} {
		wl := wl
		dev, _, _, err := ablationDevice(cfg, func(p *device.Profile) { p.WearLeveling = wl })
		if err != nil {
			return nil, err
		}
		row, err := hotRewrite(dev, 0.5, 16)
		if err != nil {
			return nil, err
		}
		if wl {
			row.Variant = "wear-leveling on"
		} else {
			row.Variant = "wear-leveling off"
		}
		out = append(out, row)
	}
	return out, nil
}

// AblationOverProvisioning sweeps the OP fraction and reports WA at high
// utilisation (DESIGN.md ablation 3).
func AblationOverProvisioning(cfg Config) ([]AblationRow, error) {
	cfg = cfg.Defaults()
	var out []AblationRow
	for _, op := range []float64{0.07, 0.14, 0.28} {
		op := op
		dev, _, _, err := ablationDevice(cfg, func(p *device.Profile) { p.OverProvision = op })
		if err != nil {
			return nil, err
		}
		row, err := hotRewrite(dev, 0.85, 3)
		if err != nil {
			return nil, err
		}
		row.Variant = fmt.Sprintf("OP %.0f%%", op*100)
		row.Extra = op
		out = append(out, row)
	}
	return out, nil
}

// AblationPoolMerge compares the hybrid device's Type A wear with merging
// enabled vs disabled (DESIGN.md ablation 4) under the Table 1 endgame
// workload (90% utilisation, rewrites of the utilised space).
func AblationPoolMerge(cfg Config) ([]AblationRow, error) {
	cfg = cfg.Defaults()
	var out []AblationRow
	for _, merge := range []bool{true, false} {
		merge := merge
		prof := device.ProfileEMMC16()
		if !merge {
			prof.Hybrid.MergeUtilisation = 10 // never
		}
		dev, _, _, err := newDevice(prof, cfg.Scale)
		if err != nil {
			return nil, err
		}
		if _, err := workload.FillDevice(dev, 0.9); err != nil {
			return nil, err
		}
		w := workload.NewDeviceWriter(dev, 4096, false, 31)
		w.RegionLen = int64(float64(dev.Size()) * 0.9)
		var written int64
		total := dev.Size() * 2
		for written < total {
			n, err := w.Step(4 << 20)
			written += n
			if err != nil {
				return nil, err
			}
		}
		row := AblationRow{
			WA:    dev.FTL().WriteAmplification(),
			Extra: dev.FTL().LifeConsumed(ftl.PoolA) * 100, // Type A % life consumed
		}
		if merge {
			row.Variant = "pool merge on"
		} else {
			row.Variant = "pool merge off"
		}
		out = append(out, row)
	}
	return out, nil
}

// AblationSLCCache sweeps the Type A cache size and reports Type B wear
// per host volume (DESIGN.md ablation 5).
func AblationSLCCache(cfg Config) ([]AblationRow, error) {
	cfg = cfg.Defaults()
	if cfg.Scale > 64 {
		cfg.Scale /= 2 // cache sizes need headroom at tiny scales
	}
	var out []AblationRow
	for _, cacheMiB := range []int64{128, 512, 2048} {
		prof := device.ProfileEMMC16()
		prof.Hybrid.CacheBytes = cacheMiB << 20
		dev, _, _, err := newDevice(prof, cfg.Scale)
		if err != nil {
			return nil, err
		}
		w := workload.NewDeviceWriter(dev, 4096, false, 41)
		w.RegionLen = dev.Size() / 20
		var written int64
		total := dev.Size()
		for written < total {
			n, err := w.Step(4 << 20)
			written += n
			if err != nil {
				return nil, err
			}
		}
		out = append(out, AblationRow{
			Variant: fmt.Sprintf("cache %dMiB", cacheMiB),
			WA:      dev.FTL().WriteAmplification(),
			Extra:   dev.FTL().LifeConsumed(ftl.PoolA) * 100,
		})
	}
	return out, nil
}

// AblationECCStrength compares usable endurance under weak vs strong ECC
// (DESIGN.md ablation 6): stronger codes keep worn blocks readable longer.
func AblationECCStrength(cfg Config) ([]AblationRow, error) {
	cfg = cfg.Defaults()
	var out []AblationRow
	for _, t := range []int{4, 8, 24} {
		chipCfg := nand.Config{
			Geometry: nand.Geometry{
				Dies: 1, PlanesPerDie: 2, BlocksPerPlane: 32,
				PagesPerBlock: 32, PageSize: 4096,
			},
			Cell: nand.MLC, RatedPE: 300, Seed: 51,
			CorrectableBits: t,
		}
		f, err := ftl.New(ftl.Config{MainChip: chipCfg})
		if err != nil {
			return nil, err
		}
		rng := newSplitMix(7)
		hot := f.LogicalPages() / 8
		var pages int64
		for {
			_, err := f.WritePage(int(rng.next()%uint64(hot)), nil, 4096)
			if err != nil {
				break
			}
			pages++
			if pages > 200_000_000 {
				break
			}
		}
		out = append(out, AblationRow{
			Variant: fmt.Sprintf("BCH t=%d", t),
			Extra:   float64(pages) * 4096 / (1 << 30), // GiB endured
		})
	}
	return out, nil
}
