package device

import (
	"fmt"
	"time"

	"flashwear/internal/nand"
)

// Size helpers.
const (
	KiB = int64(1) << 10
	MiB = int64(1) << 20
	GiB = int64(1) << 30
)

// EnvelopeAssumedPE is the rated endurance §2.3's "back-of-the-envelope"
// calculation assumes for a consumer-grade drive: 3K rewrites of the entire
// device. The gap between this assumption and the calibrated device profiles
// is exactly the paper's finding.
const EnvelopeAssumedPE = 3000

// The seven evaluation devices of §4.1, calibrated to the published
// magnitudes (see DESIGN.md "Calibration targets"):
//
//   - ProfileUSD16:     Kingston SDC4/16GB MicroSD ("uSD 16GB")
//   - ProfileEMMC8:     Toshiba THGBMBG6D1KBAIL 8GB ("eMMC 8GB")
//   - ProfileEMMC16:    SanDisk iNAND 7030 16GB, hybrid ("eMMC 16GB")
//   - ProfileMotoE8:    Moto E 2nd gen internal eMMC ("Moto E 8GB")
//   - ProfileSamsungS6: Samsung S6 internal UFS ("Samsung S6 32GB")
//   - ProfileBLU512:    BLU Dash D171a ("BLU 512MB")
//   - ProfileBLU4:      BLU Advance 4.0L ("BLU 4GB")

// ProfileUSD16 returns the MicroSD card profile. A tiny controller with a
// block-mapped FTL: sequential writes stream, but random writes inside an
// allocation unit force whole-AU copies — the collapse visible in Fig 1b.
func ProfileUSD16() Profile {
	return Profile{
		Name: "uSD 16GB", Kind: KindUSD,
		CapacityBytes: 16 * GiB,
		Cell:          nand.MLC, RatedPE: 1500,
		PageSize: 4096, PagesPerBlock: 64, Parallelism: 2,
		OverProvision: 0.07, WearLeveling: false,
		CmdOverhead:    300 * time.Microsecond,
		InterfaceMBps:  25, // SD UHS-I card of this class
		ProgramTime:    900 * time.Microsecond,
		AllocationUnit: 512 * KiB,
		Seed:           101,
	}
}

// ProfileEMMC8 returns the Toshiba 8GB eMMC profile. Calibrated so that
// ~992 GiB of 4KiB random rewrites consume 10% of estimated lifetime at
// ~20 MiB/s (Figure 2, §4.3).
func ProfileEMMC8() Profile {
	return Profile{
		Name: "eMMC 8GB", Kind: KindEMMC,
		CapacityBytes: 8 * GiB,
		Cell:          nand.MLC, RatedPE: 1400,
		PageSize: 4096, PagesPerBlock: 64, Parallelism: 4,
		OverProvision: 0.07, WearLeveling: true,
		CmdOverhead:   80 * time.Microsecond,
		InterfaceMBps: 150,
		ProgramTime:   800 * time.Microsecond,
		Seed:          102,
	}
}

// ProfileEMMC16 returns the SanDisk iNAND 7030 16GB profile — the hybrid
// device of Table 1, with a small SLC-mode "Type A" pool in front of the
// MLC "Type B" array. Calibrated to ~2.2 TiB per Type B indicator increment,
// a ~6x Type A/Type B wear ratio before pool merging, and ~40 MiB/s
// large-sequential throughput.
func ProfileEMMC16() Profile {
	return Profile{
		Name: "eMMC 16GB", Kind: KindEMMC,
		CapacityBytes: 16 * GiB,
		Cell:          nand.MLC, RatedPE: 1500,
		PageSize: 4096, PagesPerBlock: 64, Parallelism: 8,
		OverProvision: 0.07, WearLeveling: true,
		Hybrid: &HybridProfile{
			CacheBytes:       512 * MiB,
			CacheRatedPE:     5000,
			DrainRatio:       0.021,
			MergeUtilisation: 0.85,
		},
		CmdOverhead:   80 * time.Microsecond,
		InterfaceMBps: 200,
		ProgramTime:   800 * time.Microsecond,
		Seed:          103,
	}
}

// ProfileMotoE8 returns the Moto E 2nd gen internal storage profile: a
// mid-range 8GB eMMC, a little slower than the external Toshiba part.
func ProfileMotoE8() Profile {
	return Profile{
		Name: "Moto E 8GB", Kind: KindEMMC,
		CapacityBytes: 8 * GiB,
		Cell:          nand.MLC, RatedPE: 1300,
		PageSize: 4096, PagesPerBlock: 64, Parallelism: 2,
		OverProvision: 0.07, WearLeveling: true,
		CmdOverhead:   100 * time.Microsecond,
		InterfaceMBps: 100,
		ProgramTime:   850 * time.Microsecond,
		Seed:          104,
	}
}

// ProfileSamsungS6 returns the Samsung S6 internal UFS profile: deep
// parallelism and a fast interface (Figure 1's top curve), with endurance
// per §4.4 still only days from wear-out at full rate.
func ProfileSamsungS6() Profile {
	return Profile{
		Name: "Samsung S6 32GB", Kind: KindUFS,
		CapacityBytes: 32 * GiB,
		Cell:          nand.MLC, RatedPE: 1000,
		PageSize: 4096, PagesPerBlock: 64, Parallelism: 16,
		OverProvision: 0.07, WearLeveling: true,
		CmdOverhead:   40 * time.Microsecond,
		InterfaceMBps: 350,
		ProgramTime:   450 * time.Microsecond,
		Seed:          105,
	}
}

// ProfileBLU512 returns the BLU Dash D171a profile: a budget part whose
// health registers are garbage (§4.4: "did not provide reliable wear-out
// indications") but which bricks within two weeks regardless.
func ProfileBLU512() Profile {
	return Profile{
		Name: "BLU 512MB", Kind: KindEMMC,
		CapacityBytes: 512 * MiB,
		Cell:          nand.MLC, RatedPE: 3000,
		PageSize: 4096, PagesPerBlock: 64, Parallelism: 1,
		OverProvision: 0.07, WearLeveling: false,
		CmdOverhead:         250 * time.Microsecond,
		InterfaceMBps:       50,
		ProgramTime:         900 * time.Microsecond,
		UnreliableIndicator: true,
		BrickAtEOL:          true,
		Seed:                106,
	}
}

// ProfileBLU4 returns the BLU Advance 4.0L profile: budget TLC-class
// endurance, unreliable health reporting.
func ProfileBLU4() Profile {
	return Profile{
		Name: "BLU 4GB", Kind: KindEMMC,
		CapacityBytes: 4 * GiB,
		Cell:          nand.TLC, RatedPE: 600,
		PageSize: 4096, PagesPerBlock: 64, Parallelism: 2,
		OverProvision: 0.07, WearLeveling: false,
		CmdOverhead:         200 * time.Microsecond,
		InterfaceMBps:       80,
		ProgramTime:         1600 * time.Microsecond,
		UnreliableIndicator: true,
		BrickAtEOL:          true,
		Seed:                107,
	}
}

// ProfileEMMC8TLC is the "technology trends" extension: the eMMC 8GB
// profile rebuilt with TLC cells (§1: MLC/TLC trends "will exacerbate this
// problem").
func ProfileEMMC8TLC() Profile {
	p := ProfileEMMC8()
	p.Name = "eMMC 8GB (TLC)"
	p.Cell = nand.TLC
	p.RatedPE = 500
	p.ProgramTime = 1800 * time.Microsecond
	return p
}

// Figure1Profiles returns the five devices plotted in Figure 1, in legend
// order.
func Figure1Profiles() []Profile {
	return []Profile{
		ProfileUSD16(), ProfileEMMC8(), ProfileEMMC16(), ProfileMotoE8(), ProfileSamsungS6(),
	}
}

// AllProfiles returns every calibrated device.
func AllProfiles() []Profile {
	return append(Figure1Profiles(), ProfileBLU512(), ProfileBLU4())
}

// ProfileByName finds a calibrated profile by its paper label.
func ProfileByName(name string) (Profile, error) {
	for _, p := range AllProfiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("device: unknown profile %q", name)
}
