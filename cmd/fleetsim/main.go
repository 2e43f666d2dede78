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
	startProfiles, stopProfiles := profiling.Flags(flag.CommandLine)
	flag.Parse()

	usage := func(msg string) {
		fmt.Fprintln(os.Stderr, "fleetsim:", msg)
		os.Exit(2)
	}
	if *buggy < 0 || *attack < 0 || *buggy+*attack > 1 {
		usage("-buggy and -attack must be non-negative and sum to at most 1")
	}
	// The population is described once, as a campaign spec: fleetd derives
	// the same fleet.Spec from the same fields.
	spec, err := fleetd.CampaignSpec{
		Devices:   *devices,
		Days:      int(*days),
		Seed:      *seed,
		Scale:     *scale,
		ReqBytes:  *req,
		Buggy:     *buggy,
		Attack:    *attack,
		Faults:    *faultPlan,
		WearTrace: *wearTrace != "",
		Workers:   *workers,
	}.FleetSpec()
	if err != nil {
		usage(err.Error())
	}
	spec.Days = *days // batch horizons may be fractional; 0 means the default
	if *metricsCSV != "" {
		spec.MetricsEvery = *metricsEvery
	}

	if err := startProfiles(); err != nil {
		fmt.Fprintln(os.Stderr, "fleetsim:", err)
		os.Exit(1)
	}
	failed, err := run(spec, *quiet, *progress, *csvPath, *metricsCSV, *wearTrace)
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

// run is one fleet.Run call, rendered to stdout. failed reports that some
// device simulation panicked.
func run(spec fleet.Spec, quiet bool, progress time.Duration, csvPath, metricsCSV, wearTrace string) (failed bool, err error) {
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
		// The ledger is CSV, or JSON to a .json path.
		write := res.Wear.WriteCSV
		if strings.HasSuffix(wearTrace, ".json") {
			write = res.Wear.WriteJSON
		}
		err = report.WriteTo(wearTrace, write)
	}
	return res.Failed > 0, err
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
	fmt.Fprintf(w, "\nhost data absorbed: %s\n", report.HumanBytes(t.HostMiB<<20))
	if f := res.Faults; spec.Faults != nil {
		fmt.Fprintf(w, "faults: %d recoveries, %d read faults, %d program faults, %d lost pages\n",
			f.Recoveries, f.ReadFaults, f.ProgramFaults, f.LostPages)
	}
	fmt.Fprintln(w)

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

	groupTable(w, "By workload class", res.ByClass)
	groupTable(w, "By device model", res.ByProfile)

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

// groupTable renders a per-group breakdown, one line per group in name
// order, so the output is deterministic (map iteration order is not).
func groupTable(w io.Writer, title string, groups map[string]*fleet.Group) {
	names := make([]string, 0, len(groups))
	for name := range groups {
		names = append(names, name)
	}
	sort.Strings(names)
	tbl := report.NewTable(title, "group", "devices", "bricked", "brick%", "mean-days", "host-data")
	for _, name := range names {
		g := groups[name]
		tbl.AddRow(name, g.Devices, g.Bricked,
			fmt.Sprintf("%.2f", g.BrickFraction()*100),
			fmt.Sprintf("%.1f", g.MeanDaysToBrick()),
			report.HumanBytes(g.HostMiB<<20))
	}
	tbl.Render(w)
	fmt.Fprintln(w)
}
