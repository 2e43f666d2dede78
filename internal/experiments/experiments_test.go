package experiments

import (
	"testing"

	"flashwear/internal/android"
	"flashwear/internal/core"
	"flashwear/internal/device"
	"flashwear/internal/ftl"
)

// testCfg keeps experiment tests fast: tiny devices, few increments.
func testCfg(maxLevel int) Config {
	return Config{Scale: 2048, MaxLevel: maxLevel}
}

func TestFigure1Shape(t *testing.T) {
	points, err := Figure1(Config{Scale: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 5*16 {
		t.Fatalf("points = %d, want 80", len(points))
	}
	byDev := map[string][]Figure1Point{}
	for _, p := range points {
		byDev[p.Device] = append(byDev[p.Device], p)
	}
	for dev, ps := range byDev {
		// §4.2: throughput scales with request size until a plateau.
		small, large := ps[0], ps[len(ps)-1]
		if large.SeqMiBps <= small.SeqMiBps {
			t.Errorf("%s: no sequential scaling: %.1f -> %.1f", dev, small.SeqMiBps, large.SeqMiBps)
		}
		t.Logf("%-16s 4KiB seq=%6.1f rand=%6.1f | 16MiB seq=%6.1f rand=%6.1f",
			dev, ps[3].SeqMiBps, ps[3].RandMiBps, large.SeqMiBps, large.RandMiBps)
	}
	// §4.2: eMMC random ≈ sequential at 4 KiB; uSD random collapses.
	for _, ps := range [][]Figure1Point{byDev["eMMC 8GB"], byDev["eMMC 16GB"]} {
		p4k := ps[3]
		ratio := p4k.RandMiBps / p4k.SeqMiBps
		if ratio < 0.5 || ratio > 2 {
			t.Errorf("%s 4KiB rand/seq = %.2f, want ~1", p4k.Device, ratio)
		}
	}
	usd := byDev["uSD 16GB"][3]
	if usd.RandMiBps*4 > usd.SeqMiBps {
		t.Errorf("uSD 4KiB random (%.2f) should collapse vs sequential (%.2f)", usd.RandMiBps, usd.SeqMiBps)
	}
	// The Samsung S6 plateaus highest.
	if byDev["Samsung S6 32GB"][15].SeqMiBps <= byDev["eMMC 8GB"][15].SeqMiBps {
		t.Error("UFS plateau should exceed eMMC 8GB")
	}
	if len(byDev) != 5 {
		t.Fatalf("%d devices, want 5", len(byDev))
	}
}

func TestFigure2ShapeAndCalibration(t *testing.T) {
	runs, err := Figure2(testCfg(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("runs = %d", len(runs))
	}
	means := map[string]float64{}
	for _, r := range runs {
		incs := r.Report.IncrementsFor(ftl.PoolB)
		if len(incs) < 3 {
			t.Fatalf("%s: only %d increments", r.Label, len(incs))
		}
		means[r.Label] = r.Report.MeanHostGiBPerIncrement(ftl.PoolB)
		t.Logf("%s: %.0f GiB/increment (paper: 8GB<=992, 16GB~2210), WA %.2f",
			r.Label, means[r.Label], r.Report.FinalWA)
	}
	// Shape: the 16GB chip needs roughly 2x the volume of the 8GB chip.
	ratio := means["eMMC 16GB"] / means["eMMC 8GB"]
	if ratio < 1.5 || ratio > 3.5 {
		t.Errorf("16GB/8GB volume ratio = %.2f, want ~2.2", ratio)
	}
	// Magnitudes within 2x of the paper's (992 GiB, 2210 GiB).
	if m := means["eMMC 8GB"]; m < 992/2 || m > 992*2 {
		t.Errorf("eMMC 8GB = %.0f GiB/increment, paper ~992", m)
	}
	if m := means["eMMC 16GB"]; m < 2210/2 || m > 2210*2 {
		t.Errorf("eMMC 16GB = %.0f GiB/increment, paper ~2210", m)
	}
}

func TestFigure4F2FSHalvesHostVolume(t *testing.T) {
	runs, err := Figure4(testCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	var ext4, f2 float64
	for _, r := range runs {
		m := r.Report.MeanHostGiBPerIncrement(ftl.PoolB)
		t.Logf("%s: %.0f GiB/increment, WA %.2f", r.Label, m, r.Report.FinalWA)
		if r.Label == "Moto E 8GB F2FS" {
			f2 = m
		} else {
			ext4 = m
		}
	}
	ratio := f2 / ext4
	if ratio < 0.35 || ratio > 0.75 {
		t.Errorf("F2FS/ext4 host volume ratio = %.2f, paper ~0.5", ratio)
	}
}

func TestFigure3TimesAreDaysToWeeks(t *testing.T) {
	runs, err := Figure3(testCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 5 {
		t.Fatalf("runs = %d", len(runs))
	}
	for _, r := range runs {
		incs := r.Report.IncrementsFor(ftl.PoolB)
		if len(incs) == 0 {
			t.Fatalf("%s: no increments", r.Label)
		}
		last := incs[len(incs)-1]
		t.Logf("%s: %.1f h/increment (paper range ~2.5-52h)", r.Label, last.Hours)
		// §4.4: wearing out takes hours per increment (days to weeks to
		// EOL), not minutes and not months.
		if last.Hours < 1 || last.Hours > 400 {
			t.Errorf("%s: %.1f hours per increment out of plausible range", r.Label, last.Hours)
		}
	}
}

func TestTable1HybridStory(t *testing.T) {
	// Scale 512: on the 64-block floor (1024 and up) Type A increments only
	// once, in the rewrite phase, and the post-merge story cannot be told.
	rep, err := Table1(Config{Scale: 512, MaxLevel: 10})
	if err != nil {
		t.Fatal(err)
	}
	bIncs := rep.IncrementsFor(ftl.PoolB)
	aIncs := rep.IncrementsFor(ftl.PoolA)
	for _, inc := range rep.Increments {
		t.Logf("%v", inc)
	}
	if len(bIncs) < 8 {
		t.Fatalf("only %d Type B increments", len(bIncs))
	}
	if len(aIncs) < 2 {
		t.Fatalf("Type A incremented %d times, want a pre-merge and a post-merge increment", len(aIncs))
	}
	// Type B wears steadily: early increments within a band.
	early := bIncs[1].HostGiB
	if bIncs[3].HostGiB < early/3 || bIncs[3].HostGiB > early*3 {
		t.Errorf("Type B volumes unstable: %.0f vs %.0f GiB", early, bIncs[3].HostGiB)
	}
	// Type A's first increment needs several times more host volume than
	// a Type B increment (paper: ~5.4x).
	if aIncs[0].HostGiB < bIncs[1].HostGiB*2 {
		t.Errorf("Type A first increment %.0f GiB not >> Type B %.0f GiB",
			aIncs[0].HostGiB, bIncs[1].HostGiB)
	}
	// After the merge (rewrite phase), Type A accelerates: its last
	// increment needs far less volume than its first.
	if last := aIncs[len(aIncs)-1]; last.HostGiB > aIncs[0].HostGiB/2 {
		t.Errorf("Type A did not accelerate after merge: first %.0f, last %.0f GiB",
			aIncs[0].HostGiB, last.HostGiB)
	}
}

func TestEnvelopeComparisonShortfall(t *testing.T) {
	runs, err := Figure2(testCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	rows := EnvelopeComparison(runs, map[string]int64{
		"eMMC 8GB":  8 << 30,
		"eMMC 16GB": 16 << 30,
	})
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		t.Logf("%s: envelope %.0f GiB/10%%, measured %.0f, shortfall %.1fx",
			row.Device, row.EnvelopeGiBPer, row.MeasuredGiBPer, row.ShortfallFactor)
		// §4.3: "roughly three times lower than the back-of-the-envelope".
		if row.ShortfallFactor < 1.5 || row.ShortfallFactor > 5 {
			t.Errorf("%s shortfall %.1fx outside the paper's ~2-3x story", row.Device, row.ShortfallFactor)
		}
	}
}

func TestDetectionStealthInvisible(t *testing.T) {
	runs, err := Detection(Config{Scale: 4096})
	if err != nil {
		t.Fatal(err)
	}
	var cont, stealth core.AttackReport
	for _, r := range runs {
		if r.Mode == core.Continuous {
			cont = r.Report
		} else {
			stealth = r.Report
		}
		t.Logf("%v: bricked=%v active=%.1fh wall=%.1fh power=%.2fJ observed=%d",
			r.Mode, r.Report.Bricked, r.Report.ActiveHours, r.Report.Hours,
			r.Report.PowerJoulesAttributed, r.Report.ProcessObservedCount)
	}
	if !cont.Bricked || !stealth.Bricked {
		t.Fatal("attacks failed to brick")
	}
	if stealth.PowerJoulesAttributed != 0 || stealth.ProcessObservedCount != 0 {
		t.Error("stealth attack was visible")
	}
	if cont.PowerJoulesAttributed == 0 {
		t.Error("continuous attack invisible to power monitor")
	}
	if stealth.Hours <= cont.Hours {
		t.Error("stealth should take longer in wall-clock terms")
	}
	if stealth.Hours > cont.Hours*5 {
		t.Errorf("stealth factor %.1fx too large (duty cycle is 9/24)", stealth.Hours/cont.Hours)
	}
}

func TestBudgetPhonesBrickWithinWeeks(t *testing.T) {
	runs, err := BudgetPhones(Config{Scale: 2048})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		t.Logf("%s: bricked after %.1f days, %.0f GiB", r.Label, r.Days, r.HostGiB)
		if r.Days <= 0 || r.Days > 21 {
			t.Errorf("%s: %.1f days to brick, paper says within two weeks", r.Label, r.Days)
		}
	}
}

func TestMitigationPolicies(t *testing.T) {
	rows, err := Mitigation(Config{Scale: 4096})
	if err != nil {
		t.Fatal(err)
	}
	byPolicy := map[MitigationPolicy]MitigationRow{}
	for _, r := range rows {
		byPolicy[r.Policy] = r
		t.Logf("%-14s wear %.3f%%/day  projected %.0f days  benign burst %.1fs  warned=%v",
			r.Policy, r.LifeConsumedPctPerDay, r.ProjectedLifeDays, r.BenignBurstSeconds, r.WarningRaised)
	}
	none, global, sel := byPolicy[PolicyNone], byPolicy[PolicyGlobal], byPolicy[PolicySelective]
	// Limiting must slow the attack's wear dramatically.
	if global.LifeConsumedPctPerDay >= none.LifeConsumedPctPerDay/10 {
		t.Error("global limiter barely slowed the attack")
	}
	if sel.LifeConsumedPctPerDay >= none.LifeConsumedPctPerDay/10 {
		t.Error("selective throttle barely slowed the attack")
	}
	// §4.5's tradeoff: the global limiter hurts the benign burst; the
	// selective throttle must not.
	if global.BenignBurstSeconds < none.BenignBurstSeconds*5 {
		t.Error("global limiter did not visibly hurt the benign app (expected collateral damage)")
	}
	if sel.BenignBurstSeconds > none.BenignBurstSeconds*3 {
		t.Errorf("selective throttle hurt the benign app: %.1fs vs %.1fs",
			sel.BenignBurstSeconds, none.BenignBurstSeconds)
	}
	if !none.WarningRaised {
		t.Error("wear watch never warned during an unmitigated attack")
	}
}

func TestAblations(t *testing.T) {
	cfg := Config{Scale: 2048}
	t.Run("GCPolicy", func(t *testing.T) {
		rows, err := AblationGCPolicy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			t.Logf("%s: WA %.2f", r.Variant, r.WA)
			if r.WA < 1 {
				t.Errorf("%s: WA %.2f < 1", r.Variant, r.WA)
			}
		}
	})
	t.Run("WearLeveling", func(t *testing.T) {
		rows, err := AblationWearLeveling(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 2 {
			t.Fatal("rows")
		}
		t.Logf("on: spread %d; off: spread %d", rows[0].EraseSpread, rows[1].EraseSpread)
		if rows[0].EraseSpread >= rows[1].EraseSpread {
			t.Error("wear-leveling did not reduce erase spread")
		}
	})
	t.Run("OverProvisioning", func(t *testing.T) {
		rows, err := AblationOverProvisioning(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			t.Logf("%s: WA %.2f", r.Variant, r.WA)
		}
		if rows[0].WA <= rows[len(rows)-1].WA {
			t.Error("more over-provisioning should reduce WA at high utilisation")
		}
	})
	t.Run("PoolMerge", func(t *testing.T) {
		rows, err := AblationPoolMerge(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			t.Logf("%s: WA %.2f, Type A life %.1f%%", r.Variant, r.WA, r.Extra)
		}
		if rows[0].Extra <= rows[1].Extra {
			t.Error("merging should accelerate Type A wear")
		}
	})
	t.Run("SLCCache", func(t *testing.T) {
		rows, err := AblationSLCCache(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			t.Logf("%s: WA %.2f, Type A life %.2f%%", r.Variant, r.WA, r.Extra)
		}
	})
	t.Run("ECCStrength", func(t *testing.T) {
		rows, err := AblationECCStrength(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			t.Logf("%s: endured %.2f GiB", r.Variant, r.Extra)
		}
		if rows[0].Extra >= rows[len(rows)-1].Extra {
			t.Error("stronger ECC should extend endured volume")
		}
	})
}

func TestHealingExtension(t *testing.T) {
	rows, err := Healing(Config{Scale: 2048})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	var off, on float64
	for _, r := range rows {
		t.Logf("%s: %.1f%% physical wear", r.Variant, r.PhysicalWearPct)
		if r.Variant == "no healing" {
			off = r.PhysicalWearPct
		} else {
			on = r.PhysicalWearPct
		}
	}
	if on >= off {
		t.Fatalf("healing (%v%%) did not reduce wear vs baseline (%v%%)", on, off)
	}
}

func TestTLCTrendWearsFaster(t *testing.T) {
	mlc, err := Figure2(testCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	tlc, err := TLCTrend(testCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	var mlcGiB float64
	for _, r := range mlc {
		if r.Label == "eMMC 8GB" {
			mlcGiB = r.Report.MeanHostGiBPerIncrement(ftl.PoolB)
		}
	}
	tlcGiB := tlc.Report.MeanHostGiBPerIncrement(ftl.PoolB)
	t.Logf("MLC %.0f GiB/incr vs TLC %.0f GiB/incr", mlcGiB, tlcGiB)
	if tlcGiB*1.5 > mlcGiB {
		t.Fatalf("TLC (%.0f) should wear much faster than MLC (%.0f)", tlcGiB, mlcGiB)
	}
}

func TestClassifierEvalSeparatesHarmfulFromBenign(t *testing.T) {
	rows, err := ClassifierEval(Config{Scale: 2048})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		t.Logf("%-12s harmful=%-5v flagged=%-5v score=%.2f wrote=%.1f MiB",
			r.App, r.Harmful, r.Flagged, r.Score, r.WrittenMiB)
		if r.Harmful != r.Flagged {
			t.Errorf("%s: flagged=%v, ground truth harmful=%v", r.App, r.Flagged, r.Harmful)
		}
	}
}

func TestBenignBaselineContrast(t *testing.T) {
	rows, err := BenignBaseline(Config{Scale: 2048})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	benign, attacked := rows[0], rows[1]
	t.Logf("%s: %.3f%%/year, EOL in %.0f years", benign.Scenario, benign.LifePctPerYear, benign.YearsToEOL)
	t.Logf("%s: %.1f%%/year, EOL in %.4f years", attacked.Scenario, attacked.LifePctPerYear, attacked.YearsToEOL)
	// Normal use outlives a 3-year warranty by a wide margin...
	if benign.YearsToEOL < 10 {
		t.Errorf("benign use kills the device in %.1f years; expected decades", benign.YearsToEOL)
	}
	// ...while the attack destroys the device within months, three-plus
	// orders of magnitude faster.
	if attacked.YearsToEOL > 1 {
		t.Errorf("attack takes %.2f years; expected well under one", attacked.YearsToEOL)
	}
	if benign.YearsToEOL/attacked.YearsToEOL < 1000 {
		t.Errorf("contrast only %.0fx; expected >1000x", benign.YearsToEOL/attacked.YearsToEOL)
	}
}

// TestScaleInvariance validates the central scaling claim: the same
// experiment at two different capacity divisors reports the same full-scale
// volume per increment (within noise), because wear-per-scaled-byte is
// preserved and results multiply back by the effective divisor.
func TestScaleInvariance(t *testing.T) {
	run := func(scale int64) float64 {
		rep, err := runFileWear(device.ProfileEMMC8(), android.FSExt4,
			Config{Scale: scale, MaxLevel: 3})
		if err != nil {
			t.Fatal(err)
		}
		return rep.MeanHostGiBPerIncrement(ftl.PoolB)
	}
	big, small := run(256), run(512)
	ratio := big / small
	t.Logf("GiB/increment at /256 = %.0f, at /512 = %.0f (ratio %.3f)", big, small, ratio)
	if ratio < 0.85 || ratio > 1.18 {
		t.Fatalf("scale invariance broken: ratio %.3f", ratio)
	}
}
