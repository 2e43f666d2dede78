// Command fleetsim simulates a population of phones in parallel and prints
// population-scale wear statistics: what fraction of the fleet bricks
// within the horizon, how fast, and how worn the survivors are.
//
// Usage:
//
//	fleetsim -devices 100000 -workers 0 -days 365 -seed 42
//
// Everything written to stdout is a pure function of the flags (worker
// count and wall-clock time never appear there), so runs are byte-for-byte
// reproducible; progress goes to stderr.
//
// Exit codes: 0 on success, 1 on runtime error, 2 on usage error, 3 when
// any device simulation panicked (the panic is contained and the seeds are
// reported for replay, but the run is incomplete).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"flashwear/internal/fleet"
	"flashwear/internal/fleetd"
	"flashwear/internal/profiling"
	"flashwear/internal/report"
	"flashwear/internal/wtrace"
)

func main() {
	devices := flag.Int("devices", 10000, "population size")
	workers := flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
	days := flag.Float64("days", 365, "simulated horizon per device, full-scale days")
	seed := flag.Int64("seed", 42, "root seed; the run is a pure function of the flags")
	scale := flag.Int64("scale", 4096, "device capacity divisor (volumes/times multiplied back)")
	req := flag.Int64("req", 64<<10, "workload rewrite request size in bytes")
	buggy := flag.Float64("buggy", 0.07, "fraction of devices running a write-buggy app")
	attack := flag.Float64("attack", 0.03, "fraction of devices under deliberate wear attack")
	csvPath := flag.String("csv", "", "also write histogram CSV to this path (\"-\" = stdout)")
	metricsCSV := flag.String("metrics-csv", "", "write the sampled population time series to this path (\"-\" = stdout)")
	metricsEvery := flag.Duration("metrics-every", 24*time.Hour, "full-scale sampling cadence for -metrics-csv")
	faultPlan := flag.String("fault-plan", "", "per-device hardware fault plan (re-seeded per device), e.g. \"seed=7,read=1e-4,cut-every=100000\"")
	quiet := flag.Bool("quiet", false, "suppress progress output on stderr")
	wearTrace := flag.String("wear-trace", "", "write the merged per-origin wear ledger to this path (\"-\" = stdout, .json for JSON); byte-identical across -workers")
	progress := flag.Duration("progress", 0, "print a done/bricked/read-only line to stderr at this wall-clock interval")
	checkpointDir := flag.String("checkpoint", "", "run through the fleetd engine, checkpointing shards into this directory (survives kill -9; resume with -resume)")
	checkpointEvery := flag.Int("checkpoint-every", 0, "checkpoint cadence in simulated days for -checkpoint (0 = only at the end)")
	shards := flag.Int("shards", 0, "shard count for -checkpoint mode (scheduling only, never visible in results)")
	resumeDir := flag.String("resume", "", "resume the campaign checkpointed in this directory (its spec comes from campaign.json; population flags are ignored)")
	tracePath := flag.String("trace", "", "write a Chrome trace-event file of the campaign's wall-clock execution (requires -checkpoint/-resume mode)")
	startProfiles, stopProfiles := profiling.Flags(flag.CommandLine)
	flag.Parse()

	usage := func(msg string) {
		fmt.Fprintln(os.Stderr, "fleetsim:", msg)
		os.Exit(2)
	}
	service := *checkpointDir != "" || *resumeDir != ""
	switch {
	case *buggy < 0 || *attack < 0 || *buggy+*attack > 1:
		usage("-buggy and -attack must be non-negative and sum to at most 1")
	case *checkpointDir != "" && *resumeDir != "":
		usage("-checkpoint and -resume are mutually exclusive")
	case service && *days != float64(int(*days)):
		usage("-checkpoint/-resume mode advances whole days; -days must be an integer")
	case !service && *tracePath != "":
		usage("-trace requires -checkpoint/-resume mode (the execution tracer lives in the fleetd engine)")
	}
	// One population description for both modes: the campaign spec, whose
	// derived fleet.Spec is also what batch mode runs.
	cspec := fleetd.CampaignSpec{
		Devices:         *devices,
		Days:            int(*days),
		Seed:            *seed,
		Scale:           *scale,
		ReqBytes:        *req,
		Buggy:           *buggy,
		Attack:          *attack,
		Faults:          *faultPlan,
		WearTrace:       *wearTrace != "",
		Shards:          *shards,
		Workers:         *workers,
		CheckpointEvery: *checkpointEvery,
	}
	// In service mode Submit validates the spec, and -resume ignores it.
	spec, err := cspec.FleetSpec()
	if err != nil && !service {
		usage(err.Error())
	}

	if err := startProfiles(); err != nil {
		fmt.Fprintln(os.Stderr, "fleetsim:", err)
		os.Exit(1)
	}
	failed := false
	if service {
		err = serviceRun(*checkpointDir, *resumeDir, cspec, *metricsCSV, *wearTrace, *tracePath)
	} else {
		spec.Days = *days // batch horizons may be fractional; 0 means the default
		if *metricsCSV != "" {
			spec.MetricsEvery = *metricsEvery
		}
		failed, err = batchRun(spec, *quiet, *progress, *csvPath, *metricsCSV, *wearTrace)
	}
	if perr := stopProfiles(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetsim:", err)
		os.Exit(1)
	}
	if failed {
		os.Exit(3)
	}
}

// batchRun is fleetsim's default mode: one fleet.Run call, rendered to
// stdout. failed reports that some device simulation panicked.
func batchRun(spec fleet.Spec, quiet bool, progress time.Duration, csvPath, metricsCSV, wearTrace string) (failed bool, err error) {
	// Both progress displays read these counters, which the callback
	// fills. They depend on the schedule, so they go to stderr only; the
	// deterministic results never pass through them.
	var done, bricked, readOnly atomic.Int64
	var mu sync.Mutex
	step := int64(max(spec.Devices/100, 1))
	spec.Progress = func(_, total int, r fleet.DeviceResult) {
		if r.Bricked {
			bricked.Add(1)
		}
		if r.ReadOnly {
			readOnly.Add(1)
		}
		n := done.Add(1)
		if quiet || (n%step != 0 && n != int64(total)) {
			return
		}
		mu.Lock()
		fmt.Fprintf(os.Stderr, "\rfleetsim: %d/%d devices", n, total)
		if n == int64(total) {
			fmt.Fprintln(os.Stderr)
		}
		mu.Unlock()
	}

	// -progress: a wall-clock heartbeat. One attack phone costs as much as
	// hundreds of benign ones, so the 1% line above can stall for minutes.
	stopProgress := func() {}
	if progress > 0 {
		//flashvet:ignore wallclock operator progress display on stderr; deterministic results never flow through it
		ticker := time.NewTicker(progress)
		quitCh := make(chan struct{})
		go func() {
			for {
				select {
				case <-quitCh:
					return
				case <-ticker.C:
					fmt.Fprintf(os.Stderr, "fleetsim: progress: %d/%d done, %d bricked, %d read-only\n",
						done.Load(), spec.Devices, bricked.Load(), readOnly.Load())
				}
			}
		}()
		stopProgress = func() {
			ticker.Stop()
			close(quitCh)
		}
	}

	res, err := fleet.Run(context.Background(), spec)
	stopProgress()
	if err != nil {
		return false, err
	}
	render(os.Stdout, res)
	if csvPath != "" {
		err = report.WriteTo(csvPath, func(w io.Writer) error {
			res.TimeToBrick.RenderCSV(w, "days_to_brick")
			res.DeathGiB.RenderCSV(w, "gib_at_death")
			res.SurvivorWear.RenderCSV(w, "survivor_wear_level")
			res.WriteAmp.RenderCSV(w, "write_amp")
			return nil
		})
	}
	if err == nil && metricsCSV != "" {
		err = report.WriteTo(metricsCSV, res.WriteMetricsCSV)
	}
	if err == nil && wearTrace != "" {
		err = writeLedger(wearTrace, *res.Wear)
	}
	return res.Failed > 0, err
}

// writeLedger writes a wear ledger as CSV, or as JSON to a .json path.
func writeLedger(path string, ledger wtrace.Snapshot) error {
	if strings.HasSuffix(path, ".json") {
		return report.WriteTo(path, ledger.WriteJSON)
	}
	return report.WriteTo(path, ledger.WriteCSV)
}

func render(w io.Writer, res *fleet.Result) {
	spec := res.Spec
	fmt.Fprintf(w, "Fleet of %d devices over %g days (seed %d, scale %d, req %s)\n\n",
		spec.Devices, spec.Days, spec.Seed, spec.Scale, report.SizeLabel(spec.ReqBytes))

	t := res.Total
	fmt.Fprintf(w, "bricked: %d of %d (%.2f%%)", t.Bricked, t.Devices, t.BrickFraction()*100)
	if t.Bricked > 0 {
		fmt.Fprintf(w, ", mean time-to-brick %.1f days", t.MeanDaysToBrick())
	}
	fmt.Fprintf(w, "\nhost data absorbed: %s\n\n", report.HumanBytes(t.HostMiB<<20))

	if res.Failed > 0 {
		fmt.Fprintf(w, "FAILED: %d device simulation(s) panicked (contained; results exclude them)\n", res.Failed)
		fmt.Fprintf(w, "reproduce with device seeds: %v\n\n", res.FailedSeeds)
	}

	if t.Bricked > 0 {
		ps := []float64{0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99}
		ttb := report.Percentiles(res.TimeToBrick, ps...)
		gib := report.Percentiles(res.DeathGiB, ps...)
		tbl := report.NewTable("Bricked devices", "percentile", "days-to-brick", "GiB-at-death")
		for i, p := range ps {
			tbl.AddRow(fmt.Sprintf("p%g", p*100), ttb[i], gib[i])
		}
		tbl.Render(w)
		fmt.Fprintln(w)
	}

	groupTable(w, "By workload class", sortedRows(res.ByClass))
	groupTable(w, "By device model", sortedRows(res.ByProfile))

	if n := t.Devices - t.Bricked; n > 0 {
		chart := report.NewBarChart(
			fmt.Sprintf("Survivor wear (JEDEC Type B level, %d devices)", n), "devices")
		for i, c := range res.SurvivorWear.Counts {
			chart.Add(fmt.Sprintf("level %2d", i), float64(c))
		}
		chart.Render(w)
		fmt.Fprintln(w)
	}

	wa := report.Percentiles(res.WriteAmp, 0.50, 0.90, 0.99)
	fmt.Fprintf(w, "write amplification: p50 %.2f  p90 %.2f  p99 %.2f\n", wa[0], wa[1], wa[2])
}

// groupRow is one named line of a per-group breakdown.
type groupRow struct {
	name string
	fleet.Group
}

// sortedRows orders a batch result's groups by name, so the output is
// deterministic (map iteration order is not).
func sortedRows(groups map[string]*fleet.Group) []groupRow {
	rows := make([]groupRow, 0, len(groups))
	for name, g := range groups {
		rows = append(rows, groupRow{name, *g})
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].name < rows[b].name })
	return rows
}

// groupTable renders a per-group breakdown for either mode, one line per
// row in the order given.
func groupTable(w io.Writer, title string, rows []groupRow) {
	tbl := report.NewTable(title, "group", "devices", "bricked", "brick%", "mean-days", "host-data")
	for _, g := range rows {
		tbl.AddRow(g.name, g.Devices, g.Bricked,
			fmt.Sprintf("%.2f", g.BrickFraction()*100),
			fmt.Sprintf("%.1f", g.MeanDaysToBrick()),
			report.HumanBytes(g.HostMiB<<20))
	}
	tbl.Render(w)
	fmt.Fprintln(w)
}
