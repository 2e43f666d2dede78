package experiments

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"flashwear/internal/core"
	"flashwear/internal/ftl"
	"flashwear/internal/report"
)

// Exhibit is one table, figure or study of the reproduction, and Exhibits
// is the only list of them: `flashsim exhibit`, the root BenchmarkExhibit
// and EXPERIMENTS.md's checked headline block all iterate it.
type Exhibit struct {
	// Name keys `flashsim exhibit <Name>` and BenchmarkExhibit/<Name>.
	Name string
	// Ref says where the paper (or DESIGN.md) states the result.
	Ref string
	// Config is the one config the published headline numbers come from.
	Config Config
	// Headlines are the metric names every run must produce, sorted.
	Headlines []string
	run       func(Config, *Result) error
}

// Headline is one named number an exhibit is quoted by.
type Headline struct {
	Name  string
	Value float64
}

// Digits formats the value at four significant digits without an exponent,
// the precision EXPERIMENTS.md pins.
func (h Headline) Digits() string {
	r, _ := strconv.ParseFloat(strconv.FormatFloat(h.Value, 'e', 3, 64), 64)
	return strconv.FormatFloat(r, 'f', -1, 64)
}

// Result is what running an exhibit yields: its tables, ready to render,
// and its headlines, sorted by name.
type Result struct {
	Tables    []*report.Table
	Headlines []Headline
}

func (r *Result) table(title string, headers ...string) *report.Table {
	t := report.NewTable(title, headers...)
	r.Tables = append(r.Tables, t)
	return t
}

// headline records a metric; spaces in the name become underscores so it
// can serve as a benchmark unit.
func (r *Result) headline(name string, v float64) {
	r.Headlines = append(r.Headlines, Headline{strings.ReplaceAll(name, " ", "_"), v})
}

// Run regenerates the exhibit at cfg. Headlines are total: a run that
// cannot produce every declared headline (or produces another) is an
// error, never a shorter list.
func (e Exhibit) Run(cfg Config) (Result, error) {
	var r Result
	if err := e.run(cfg, &r); err != nil {
		return Result{}, fmt.Errorf("%s: %w", e.Name, err)
	}
	sort.Slice(r.Headlines, func(i, j int) bool { return r.Headlines[i].Name < r.Headlines[j].Name })
	names := make([]string, len(r.Headlines))
	for i, h := range r.Headlines {
		names[i] = h.Name
	}
	if !slices.Equal(names, e.Headlines) {
		return Result{}, fmt.Errorf("%s at %v: produced headlines %q, declared %q", e.Name, cfg, names, e.Headlines)
	}
	return r, nil
}

// Lookup finds an exhibit by name.
func Lookup(name string) (Exhibit, bool) {
	for _, e := range Exhibits {
		if e.Name == name {
			return e, true
		}
	}
	return Exhibit{}, false
}

// Exhibits lists every exhibit. The pinned configs keep a full pass at
// about 45 s: devices at or near minimum size, wear runs bounded to the
// first few indicator increments.
var Exhibits = []Exhibit{
	{"fig1", "Fig 1: write bandwidth vs request size, five devices", Config{Scale: 2048},
		[]string{"eMMC16-16MiB-MiB/s", "eMMC16-4KiB-MiB/s", "uSD-4KiB-rand-MiB/s", "uSD-4KiB-seq-MiB/s"}, figure1Exhibit},
	{"fig2", "Fig 2: host GiB per wear-indicator increment, external chips", Config{Scale: 2048, MaxLevel: 4},
		[]string{"eMMC_16GB-GiB/incr", "eMMC_8GB-GiB/incr"},
		wearExhibit("Figure 2: I/O to increment the wear-out indicator", Figure2, "-GiB/incr", meanGiB)},
	{"fig3", "Fig 3: hours per increment, phones and chips", Config{Scale: 2048, MaxLevel: 3},
		[]string{"Moto_E_8GB-h/incr", "Moto_E_8GB_F2FS-h/incr", "Samsung_S6_32GB-h/incr", "eMMC_16GB-h/incr", "eMMC_8GB-h/incr"},
		wearExhibit("Figure 3: time to increment the wear-out indicator", Figure3, "-h/incr", lastHours)},
	{"fig4", "Fig 4: host GiB per increment, Moto E ext4 vs F2FS", Config{Scale: 2048, MaxLevel: 3},
		[]string{"F2FS/ext4-ratio", "Moto_E_8GB_Ext4-GiB/incr", "Moto_E_8GB_F2FS-GiB/incr"}, figure4Exhibit},
	// Scale 512, not the 64-block floor: at the floor (1024 and up) the
	// hybrid cache stops scaling and Type A increments once, never twice.
	{"table1", "Table 1: hybrid eMMC 16GB Type A/B indicators across workload phases", Config{Scale: 512, MaxLevel: 10},
		[]string{"TypeA-first-GiB", "TypeA-merged-GiB", "TypeB-GiB/incr"}, table1Exhibit},
	{"envelope", "§2.3 vs §4.3: back-of-the-envelope estimate vs measured", Config{Scale: 2048, MaxLevel: 3},
		[]string{"eMMC_16GB-shortfall-x", "eMMC_8GB-shortfall-x"}, envelopeExhibit},
	{"budget", "§4.4: BLU budget phones brick without usable indicators", Config{Scale: 2048},
		[]string{"BLU_4GB-days-to-brick", "BLU_512MB-days-to-brick"}, budgetExhibit},
	{"detection", "§4.4: continuous vs stealth attack against the OS monitors", Config{Scale: 4096},
		[]string{"stealth-joules-seen", "stealth-sightings", "stealth-slowdown-x"}, detectionExhibit},
	{"mitigation", "§4.5: rate-limit and classifier defences vs the attack and a benign burst", Config{Scale: 4096},
		[]string{"global-limit-burst-s", "global-limit-life-days", "none-burst-s", "none-life-days", "selective-burst-s", "selective-life-days"},
		mitigationExhibit},
	{"classifier", "§4.5 extension: the classifier against a realistic app population", Config{Scale: 2048},
		[]string{"camera-score", "chat-score", "spotify-bug-score", "updater-score", "wear-attack-score"}, classifierExhibit},
	{"baseline", "title claim: normal use lasts decades, the attack months", Config{Scale: 2048},
		[]string{"normal-use-years-to-EOL", "with-attack-years-to-EOL"}, baselineExhibit},
	{"tlc", "§1 extension: the eMMC 8GB rebuilt with TLC cells", Config{Scale: 2048, MaxLevel: 3},
		[]string{"MLC-GiB/incr", "MLC/TLC-endurance-x", "TLC-GiB/incr"}, tlcExhibit},
	{"healing", "§2.2 extension: detrapping while idle", Config{Scale: 2048},
		[]string{"heal-leveling_on-wear-pct", "no_healing-wear-pct"}, healingExhibit},
	{"ablation-gc", "DESIGN.md §4.1: greedy vs cost-benefit GC", Config{Scale: 2048},
		[]string{"cost-benefit-WA", "greedy-WA"},
		ablationExhibit("GC policy under skewed rewrites", AblationGCPolicy, "WA", "-WA", rowWA)},
	{"ablation-wearlevel", "DESIGN.md §4.2: wear-leveling on/off", Config{Scale: 2048},
		[]string{"wear-leveling_off-spread", "wear-leveling_on-spread"},
		ablationExhibit("Wear-leveling under a hot spot", AblationWearLeveling, "Erase spread", "-spread",
			func(r AblationRow) float64 { return float64(r.EraseSpread) })},
	{"ablation-op", "DESIGN.md §4.3: over-provisioning sweep", Config{Scale: 2048},
		[]string{"OP_14%-WA", "OP_28%-WA", "OP_7%-WA"},
		ablationExhibit("Over-provisioning at 85% utilisation", AblationOverProvisioning, "WA", "-WA", rowWA)},
	{"ablation-merge", "DESIGN.md §4.4: hybrid pool merging on/off", Config{Scale: 2048},
		[]string{"pool_merge_off-TypeA-life-pct", "pool_merge_on-TypeA-life-pct"},
		ablationExhibit("Pool merge under the Table 1 endgame workload", AblationPoolMerge, "Type A life %", "-TypeA-life-pct", rowExtra)},
	{"ablation-slc", "DESIGN.md §4.5: SLC cache size", Config{Scale: 2048},
		[]string{"cache_128MiB-TypeA-life-pct", "cache_2048MiB-TypeA-life-pct", "cache_512MiB-TypeA-life-pct"},
		ablationExhibit("SLC cache size", AblationSLCCache, "Type A life %", "-TypeA-life-pct", rowExtra)},
	{"ablation-ecc", "DESIGN.md §4.6: ECC strength", Config{Scale: 2048},
		[]string{"BCH_t=24-GiB-endured", "BCH_t=4-GiB-endured", "BCH_t=8-GiB-endured"},
		ablationExhibit("ECC strength vs endured volume", AblationECCStrength, "GiB endured", "-GiB-endured", rowExtra)},
}

func levels(inc core.Increment) string { return fmt.Sprintf("%d-%d", inc.FromLevel, inc.ToLevel) }

func figure1Exhibit(cfg Config, r *Result) error {
	points, err := Figure1(cfg)
	if err != nil {
		return err
	}
	tbl := r.table("Figure 1: write bandwidth by request size (MiB/s)", "Device", "Req", "Sequential", "Random")
	for _, p := range points {
		tbl.AddRow(p.Device, report.SizeLabel(p.ReqBytes), p.SeqMiBps, p.RandMiBps)
		switch {
		case p.Device == "eMMC 16GB" && p.ReqBytes == 4096:
			r.headline("eMMC16-4KiB-MiB/s", p.SeqMiBps)
		case p.Device == "eMMC 16GB" && p.ReqBytes == 16<<20:
			r.headline("eMMC16-16MiB-MiB/s", p.SeqMiBps)
		case p.Device == "uSD 16GB" && p.ReqBytes == 4096:
			// Figure 1b's collapse: random against sequential.
			r.headline("uSD-4KiB-rand-MiB/s", p.RandMiBps)
			r.headline("uSD-4KiB-seq-MiB/s", p.SeqMiBps)
		}
	}
	return nil
}

// wearTables renders wear runs the way Figures 2–4 are read: one row per
// Type B increment, then each run's totals.
func wearTables(r *Result, title string, runs []WearRun) {
	incs := r.table(title, "Config", "Increment", "Host GiB", "Hours", "WA")
	totals := r.table("", "Config", "Mean GiB/incr", "Total GiB", "Total h", "Bricked")
	for _, run := range runs {
		for _, inc := range run.Report.IncrementsFor(ftl.PoolB) {
			incs.AddRow(run.Label, levels(inc), inc.HostGiB, inc.Hours, run.Report.FinalWA)
		}
		totals.AddRow(run.Label, meanGiB(run), run.Report.TotalHostGiB, run.Report.TotalHours, run.Report.Bricked)
	}
}

func meanGiB(run WearRun) float64 { return run.Report.MeanHostGiBPerIncrement(ftl.PoolB) }

// lastHours is the duration of the run's last Type B increment; a run
// without one yields no headline, which Run reports.
func lastHours(run WearRun) float64 {
	incs := run.Report.IncrementsFor(ftl.PoolB)
	if len(incs) == 0 {
		return 0
	}
	return incs[len(incs)-1].Hours
}

// wearExhibit adapts a set of wear runs: the tables plus one headline per
// run, label+suffix, for every run where pick finds a value.
func wearExhibit(title string, runs func(Config) ([]WearRun, error), suffix string, pick func(WearRun) float64) func(Config, *Result) error {
	return func(cfg Config, r *Result) error {
		rs, err := runs(cfg)
		if err != nil {
			return err
		}
		wearTables(r, title, rs)
		for _, run := range rs {
			if v := pick(run); v > 0 {
				r.headline(run.Label+suffix, v)
			}
		}
		return nil
	}
}

func figure4Exhibit(cfg Config, r *Result) error {
	if err := wearExhibit("Figure 4: I/O per increment, Moto E Ext4 vs F2FS", Figure4, "-GiB/incr", meanGiB)(cfg, r); err != nil {
		return err
	}
	// Figure4 returns ext4 then F2FS; the paper's claim is the ratio.
	if len(r.Headlines) == 2 {
		r.headline("F2FS/ext4-ratio", r.Headlines[1].Value/r.Headlines[0].Value)
	}
	return nil
}

func table1Exhibit(cfg Config, r *Result) error {
	rep, err := Table1(cfg)
	if err != nil {
		return err
	}
	tbl := r.table("Table 1: eMMC 16GB hybrid wear-out indicators over time",
		"Pool", "Indic.", "I/O Vol (GiB)", "Time (h)", "I/O Pattern", "Space Util")
	for _, inc := range rep.Increments {
		tbl.AddRow(inc.Pool.String(), levels(inc), inc.HostGiB, inc.Hours, inc.Pattern,
			fmt.Sprintf("%.0f%%", inc.SpaceUtil*100))
	}
	// The steady Type B volume, Type A's first (pre-merge) increment and
	// its last, post-merge one (paper: ~2210, ~11936, ~439 GiB).
	if bIncs := rep.IncrementsFor(ftl.PoolB); len(bIncs) > 1 {
		r.headline("TypeB-GiB/incr", bIncs[1].HostGiB)
	}
	aIncs := rep.IncrementsFor(ftl.PoolA)
	if len(aIncs) > 0 {
		r.headline("TypeA-first-GiB", aIncs[0].HostGiB)
	}
	if len(aIncs) > 1 {
		r.headline("TypeA-merged-GiB", aIncs[len(aIncs)-1].HostGiB)
	}
	return nil
}

func envelopeExhibit(cfg Config, r *Result) error {
	runs, err := Figure2(cfg)
	if err != nil {
		return err
	}
	rows := EnvelopeComparison(runs, map[string]int64{"eMMC 8GB": 8 << 30, "eMMC 16GB": 16 << 30})
	tbl := r.table("Back-of-the-envelope (§2.3) vs measured (§4.3)",
		"Device", "Envelope GiB/10%", "Measured GiB/10%", "Shortfall")
	for _, row := range rows {
		tbl.AddRow(row.Device, row.EnvelopeGiBPer, row.MeasuredGiBPer, fmt.Sprintf("%.1fx", row.ShortfallFactor))
		if row.MeasuredGiBPer > 0 {
			r.headline(row.Device+"-shortfall-x", row.ShortfallFactor)
		}
	}
	return nil
}

func budgetExhibit(cfg Config, r *Result) error {
	runs, err := BudgetPhones(cfg)
	if err != nil {
		return err
	}
	tbl := r.table("Budget phones (§4.4): bricked without reliable indicators",
		"Phone", "Days to brick", "Host GiB", "Indicator usable")
	for _, run := range runs {
		tbl.AddRow(run.Label, run.Days, run.HostGiB, run.IndicatorSeen)
		r.headline(run.Label+"-days-to-brick", run.Days)
	}
	return nil
}

func detectionExhibit(cfg Config, r *Result) error {
	runs, err := Detection(cfg)
	if err != nil {
		return err
	}
	tbl := r.table("Detection (§4.4): what the OS monitors saw",
		"Mode", "Bricked", "Host GiB", "Wall-clock h", "Duty cycle", "Joules attributed", "Process sightings")
	hours := map[core.AttackMode]float64{}
	for _, run := range runs {
		rep := run.Report
		tbl.AddRow(rep.Mode.String(), rep.Bricked, rep.HostGiB, rep.Hours, rep.DutyCycle,
			rep.PowerJoulesAttributed, rep.ProcessObservedCount)
		hours[rep.Mode] = rep.Hours
		if rep.Mode == core.Stealth {
			r.headline("stealth-joules-seen", rep.PowerJoulesAttributed)
			r.headline("stealth-sightings", float64(rep.ProcessObservedCount))
		}
	}
	if hours[core.Continuous] > 0 {
		r.headline("stealth-slowdown-x", hours[core.Stealth]/hours[core.Continuous])
	}
	return nil
}

func mitigationExhibit(cfg Config, r *Result) error {
	rows, err := Mitigation(cfg)
	if err != nil {
		return err
	}
	tbl := r.table("Mitigation evaluation (§4.5): wear attack + benign burst app",
		"Policy", "Attack wear %/day", "Projected life (days)", "Benign 64MiB burst (s)", "Wear warning")
	for _, row := range rows {
		tbl.AddRow(string(row.Policy), fmt.Sprintf("%.4f", row.LifeConsumedPctPerDay),
			fmt.Sprintf("%.0f", row.ProjectedLifeDays), row.BenignBurstSeconds, row.WarningRaised)
		r.headline(string(row.Policy)+"-life-days", row.ProjectedLifeDays)
		r.headline(string(row.Policy)+"-burst-s", row.BenignBurstSeconds)
	}
	return nil
}

func classifierExhibit(cfg Config, r *Result) error {
	rows, err := ClassifierEval(cfg)
	if err != nil {
		return err
	}
	tbl := r.table("Classifier evaluation: a realistic app population",
		"App", "Ground truth", "Flagged", "Score", "Wrote (MiB)")
	for _, row := range rows {
		truth := "benign"
		if row.Harmful {
			truth = "harmful"
		}
		tbl.AddRow(row.App, truth, row.Flagged, row.Score, row.WrittenMiB)
		r.headline(row.App+"-score", row.Score)
	}
	return nil
}

func baselineExhibit(cfg Config, r *Result) error {
	rows, err := BenignBaseline(cfg)
	if err != nil {
		return err
	}
	tbl := r.table("Benign baseline: the same phone with and without the attack",
		"Scenario", "Life %/year", "Years to EOL")
	for i, row := range rows {
		tbl.AddRow(row.Scenario, row.LifePctPerYear, row.YearsToEOL)
		// BenignBaseline returns normal use, then normal use plus attack.
		r.headline([]string{"normal-use", "with-attack"}[i]+"-years-to-EOL", row.YearsToEOL)
	}
	return nil
}

func tlcExhibit(cfg Config, r *Result) error {
	mlc, err := Figure2(cfg)
	if err != nil {
		return err
	}
	tlc, err := TLCTrend(cfg)
	if err != nil {
		return err
	}
	runs := []WearRun{mlc[0], tlc} // Figure2's first run is the eMMC 8GB
	wearTables(r, "Technology trend: the eMMC 8GB with MLC vs TLC cells", runs)
	mlcGiB, tlcGiB := meanGiB(runs[0]), meanGiB(runs[1])
	r.headline("MLC-GiB/incr", mlcGiB)
	r.headline("TLC-GiB/incr", tlcGiB)
	if tlcGiB > 0 {
		r.headline("MLC/TLC-endurance-x", mlcGiB/tlcGiB)
	}
	return nil
}

func healingExhibit(cfg Config, r *Result) error {
	rows, err := Healing(cfg)
	if err != nil {
		return err
	}
	tbl := r.table("Self-healing extension: a bursty, idle-heavy workload", "Variant", "Physical wear %")
	for _, row := range rows {
		tbl.AddRow(row.Variant, row.PhysicalWearPct)
		r.headline(row.Variant+"-wear-pct", row.PhysicalWearPct)
	}
	return nil
}

func rowWA(r AblationRow) float64    { return r.WA }
func rowExtra(r AblationRow) float64 { return r.Extra }

// ablationExhibit adapts a design-choice study: one row and one headline
// (variant+suffix) per variant, from the column the study is about.
func ablationExhibit(title string, study func(Config) ([]AblationRow, error), column, suffix string, pick func(AblationRow) float64) func(Config, *Result) error {
	return func(cfg Config, r *Result) error {
		rows, err := study(cfg)
		if err != nil {
			return err
		}
		tbl := r.table("Ablation: "+title, "Variant", column)
		for _, row := range rows {
			r.headline(row.Variant+suffix, pick(row))
			tbl.AddRow(row.Variant, r.Headlines[len(r.Headlines)-1].Digits())
		}
		return nil
	}
}
