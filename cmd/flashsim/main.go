// Command flashsim is the single-device front end of the simulation stack:
//
//	flashsim list                             the calibrated device profiles
//	flashsim run -device "eMMC 16GB" [...]    a write pattern against one device — a small fio-plus-smartctl
//	flashsim exhibit list                     the paper's exhibits (experiments.Exhibits)
//	flashsim exhibit fig2 [-scale N] [...]    regenerate one, at its pinned config unless told otherwise
//	flashsim attack [-phone "Moto E 8GB"]     §4.4's attack app end to end
//
// Each subcommand lists its flags with -h. Exit codes: 0 on success, 1 on
// runtime error, 2 on usage error; run also exits 3 when the device
// hard-bricked and 4 when it retired into read-only EOL mode.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"flashwear/internal/blockdev"
	"flashwear/internal/device"
	"flashwear/internal/faultinject"
	"flashwear/internal/ftl"
	"flashwear/internal/profiling"
	"flashwear/internal/report"
	"flashwear/internal/simclock"
	"flashwear/internal/telemetry"
	"flashwear/internal/trace"
	"flashwear/internal/workload"
	"flashwear/internal/wtrace"
)

// Exit codes: the wear outcomes get their own so scripts can tell a clean
// run from a device that died gracefully or bricked outright.
const (
	exitOK       = 0
	exitError    = 1
	exitUsage    = 2
	exitBricked  = 3
	exitReadOnly = 4
)

// options holds the flags more than one subcommand takes.
type options struct {
	scale        int64
	metricsCSV   string
	metricsEvery time.Duration
	wearLedger   string
	wearTrace    string
}

// stopProfiles finishes -pprof-cpu/-pprof-heap once parse has started them.
var stopProfiles = func() error { return nil }

// newFlagSet starts a subcommand's flag set with -scale, which every
// subcommand takes; parse adds the profiling pair.
func newFlagSet(cmd string, o *options, scale int64, scaleUsage string) *flag.FlagSet {
	fs := flag.NewFlagSet("flashsim "+cmd, flag.ExitOnError)
	fs.Int64Var(&o.scale, "scale", scale, scaleUsage)
	return fs
}

// observeFlags registers the telemetry and wear-attribution outputs that
// run and exhibit share; every is -metrics-every's default.
func observeFlags(fs *flag.FlagSet, o *options, every time.Duration) {
	fs.StringVar(&o.metricsCSV, "metrics-csv", "", "sample telemetry and write the series here (\"-\" = stdout; run: .json for JSON; exhibit: long form, one row per run, sample and metric)")
	fs.DurationVar(&o.metricsEvery, "metrics-every", every, "simulated sampling cadence for -metrics-csv (exhibit: at full device scale)")
	fs.StringVar(&o.wearLedger, "wear-ledger", "", "write the per-origin wear ledger here (\"-\" = stdout; run: .json for JSON; exhibit: one labeled CSV block per run)")
	fs.StringVar(&o.wearTrace, "wear-trace", "", "write a Chrome trace-event JSON here (chrome://tracing, Perfetto; exhibit: one process per run)")
}

// parse parses a subcommand's flags — it takes no positional arguments —
// and starts profiling.
func parse(fs *flag.FlagSet, args []string) {
	start, stop := profiling.Flags(fs)
	fs.Parse(args) // ExitOnError: prints usage and exits 2
	if fs.NArg() > 0 {
		fail(exitUsage, fmt.Errorf("%s: unexpected argument %q", fs.Name(), fs.Arg(0)))
	}
	if err := start(); err != nil {
		fail(exitError, err)
	}
	stopProfiles = stop
}

// exit ends the process by way of the profiling stop, which os.Exit would
// skip as a defer.
func exit(code int) {
	if err := stopProfiles(); err != nil {
		fmt.Fprintln(os.Stderr, "flashsim:", err)
		if code == exitOK {
			code = exitError
		}
	}
	os.Exit(code)
}

// fail prints err and exits with code.
func fail(code int, err error) {
	fmt.Fprintln(os.Stderr, "flashsim:", err)
	exit(code)
}

func main() {
	if len(os.Args) < 2 {
		fail(exitUsage, errors.New("usage: flashsim list | run | exhibit | attack [flags] (-h lists a subcommand's flags)"))
	}
	switch cmd, args := os.Args[1], os.Args[2:]; cmd {
	case "list":
		listProfiles()
	case "run":
		runDevice(args)
	case "exhibit":
		exhibit(args)
	case "attack":
		attack(args)
	default:
		fail(exitUsage, fmt.Errorf("unknown subcommand %q (want list, run, exhibit or attack)", cmd))
	}
	exit(exitOK)
}

func listProfiles() {
	tbl := report.NewTable("Calibrated device profiles (§4.1)",
		"Name", "Kind", "Capacity", "Cell", "Rated P/E", "Parallelism", "Hybrid")
	for _, p := range device.AllProfiles() {
		hybrid := "-"
		if p.Hybrid != nil {
			hybrid = report.HumanBytes(p.Hybrid.CacheBytes) + " SLC"
		}
		tbl.AddRow(p.Name, p.Kind.String(), report.HumanBytes(p.CapacityBytes),
			p.Cell.String(), p.RatedPE, p.Parallelism, hybrid)
	}
	tbl.Render(os.Stdout)
}

// runDevice drives a write pattern (or a recorded trace) against one
// device and reports throughput, write amplification and wear.
func runDevice(args []string) {
	var o options
	fs := newFlagSet("run", &o, 256, "device capacity divisor")
	name := fs.String("device", "eMMC 8GB", "device profile to simulate")
	req := fs.Int64("req", 4096, "request size in bytes")
	seq := fs.Bool("seq", false, "sequential instead of random writes")
	gib := fs.Float64("gib", 4, "host GiB to write (at simulation scale)")
	fill := fs.Float64("fill", 0, "pre-fill this fraction of the device with static data")
	record := fs.String("record", "", "record the I/O trace to this file")
	replay := fs.String("replay", "", "replay a recorded trace instead of generating a pattern")
	faultPlan := fs.String("fault-plan", "", "deterministic fault plan, e.g. \"seed=7,read=1e-4,program=1e-5,cut-every=100000\"")
	powerCut := fs.Float64("power-cut", 0, "cut power once after this fraction of -gib, then power-cycle and continue")
	observeFlags(fs, &o, 10*time.Second)
	parse(fs, args)

	prof, err := device.ProfileByName(*name)
	if err != nil {
		fail(exitUsage, err)
	}
	scaled := prof.Scaled(o.scale)
	if *faultPlan != "" {
		plan, err := faultinject.ParsePlan(*faultPlan)
		if err != nil {
			fail(exitUsage, fmt.Errorf("-fault-plan: %w", err))
		}
		scaled.Faults = &plan
	}
	if *powerCut < 0 || *powerCut >= 1 {
		fail(exitUsage, fmt.Errorf("-power-cut %v: want a fraction in [0, 1)", *powerCut))
	}
	clock := simclock.New()
	dev, err := device.New(scaled, clock)
	if err != nil {
		fail(exitError, err)
	}
	// Wear attribution attaches at device birth: the -fill pre-fill runs as
	// origin "os", the write pattern as "workload", and the ledger accounts
	// every NAND program and erase between them.
	var tr *wtrace.Tracer
	if o.wearTrace != "" || o.wearLedger != "" {
		tr = wtrace.New()
		if o.wearTrace != "" {
			tr.EnableEvents(0)
		}
		dev.EnableWearTrace(tr)
	}
	// Telemetry attaches at device birth — before the pre-fill — so push
	// and pull counters agree; the sampler runs on the simulated clock, so
	// the series is a pure function of the flags.
	var reg *telemetry.Registry
	if o.metricsCSV != "" {
		reg = telemetry.NewRegistry()
		dev.Instrument(reg)
	}

	if *fill > 0 {
		if _, err := workload.FillDevice(dev, *fill); err != nil {
			fail(exitError, fmt.Errorf("fill: %w", err))
		}
	}

	var target blockdev.Device = dev
	var recorder *trace.Recorder
	if *record != "" {
		recorder = trace.NewRecorder(dev, clock)
		target = recorder
	}

	// The sampler starts only once every instrument is registered: the
	// first snapshot freezes the series' column layout.
	var sampler *telemetry.Sampler
	if reg != nil {
		if recorder != nil {
			recorder.Instrument(reg)
		}
		sampler = telemetry.NewSampler(reg, clock, o.metricsEvery)
	}

	start := clock.Now()
	var written int64
	var recoveries int
	if tr != nil {
		// Everything from here on is the measured workload.
		tr.SetOrigin(tr.Origin("workload"))
	}
	if *replay != "" {
		f, err := os.Open(*replay)
		if err != nil {
			fail(exitError, err)
		}
		events, err := trace.Read(f)
		_ = f.Close()
		if err != nil {
			fail(exitError, fmt.Errorf("replay: %w", err))
		}
		st, err := trace.Replay(target, clock, events, trace.ReplayOptions{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "flashsim: replay:", err)
		}
		written = st.BytesWritten
		fmt.Printf("Replayed %d events (%d errors)\n", st.Events, st.Errors)
	} else {
		w := workload.NewDeviceWriter(target, *req, *seq, 1)
		total := int64(*gib * float64(1<<30))
		cutAt := int64(-1)
		if *powerCut > 0 {
			cutAt = int64(*powerCut * float64(total))
		}
		for written < total {
			if cutAt >= 0 && written >= cutAt {
				cutAt = -1
				dev.CutPower()
			}
			n, err := w.Step(4 << 20)
			written += n
			if err == nil {
				continue
			}
			// Injected or -power-cut power loss: do what a phone does —
			// power back on, remount (OOB-scan recovery), keep writing.
			if errors.Is(err, device.ErrPowerLoss) {
				if err := dev.PowerCycle(); err != nil {
					fail(exitError, fmt.Errorf("power cycle: %w", err))
				}
				recoveries++
				continue
			}
			fmt.Fprintf(os.Stderr, "flashsim: device failed after %s: %v\n",
				report.HumanBytes(written), err)
			break
		}
	}
	elapsed := clock.Now() - start

	if sampler != nil {
		sampler.Stop()
		sampler.Final()
		s := sampler.Series()
		if err := report.WriteTo(o.metricsCSV, bySuffix(o.metricsCSV, s.WriteCSV, s.WriteJSON)); err != nil {
			fail(exitError, fmt.Errorf("metrics: %w", err))
		}
	}

	if recorder != nil {
		out, err := os.Create(*record)
		if err != nil {
			fail(exitError, err)
		}
		if err := trace.Write(out, recorder.Events()); err != nil {
			fail(exitError, fmt.Errorf("trace: %w", err))
		}
		if err := out.Close(); err != nil {
			fail(exitError, err)
		}
		fmt.Fprintf(os.Stderr, "recorded %d events to %s\n", len(recorder.Events()), *record)
	}

	f := dev.FTL()
	fmt.Printf("Device: %s (scaled /%d: %s exported)\n", prof.Name, o.scale, report.HumanBytes(dev.Size()))
	fmt.Printf("Pattern: %s, %s requests\n",
		map[bool]string{true: "sequential", false: "random"}[*seq], report.SizeLabel(*req))
	fmt.Printf("Wrote %s in %.2f simulated s -> %.2f MiB/s\n",
		report.HumanBytes(written), elapsed.Seconds(),
		float64(written)/elapsed.Seconds()/(1<<20))
	fmt.Printf("Write amplification: %.3f\n", f.WriteAmplification())
	fmt.Printf("Utilisation: %.1f%%   GC copies: %d\n", f.Utilisation()*100, f.GCCopies())
	fmt.Printf("Life consumed (Type B): %.2f%%   indicator: %d   PRE_EOL: %d\n",
		f.LifeConsumed(ftl.PoolB)*100, dev.WearIndicator(ftl.PoolB), dev.PreEOLInfo())
	if f.CacheChip() != nil {
		fmt.Printf("Life consumed (Type A): %.2f%%   indicator: %d   merged: %v\n",
			f.LifeConsumed(ftl.PoolA)*100, dev.WearIndicator(ftl.PoolA), f.Merged())
	}
	if inj := dev.Injector(); inj != nil {
		st := inj.Stats()
		fmt.Printf("Injected faults: %d read, %d program, %d erase, %d power cuts\n",
			st.ReadFaults, st.ProgramFaults, st.EraseFaults, st.PowerCuts)
	}
	if recoveries > 0 {
		fmt.Printf("Power-loss recoveries: %d (every acknowledged write survived or the run would have failed)\n", recoveries)
	}
	if tr != nil {
		snap := tr.Snapshot()
		if o.wearLedger != "" {
			if err := report.WriteTo(o.wearLedger, bySuffix(o.wearLedger, snap.WriteCSV, snap.WriteJSON)); err != nil {
				fail(exitError, fmt.Errorf("wear ledger: %w", err))
			}
		}
		if o.wearTrace != "" {
			if err := report.WriteTo(o.wearTrace, func(w io.Writer) error {
				return wtrace.WriteChrome(w, tr.Process(prof.Name))
			}); err != nil {
				fail(exitError, fmt.Errorf("wear trace: %w", err))
			}
		}
		if top := snap.Top(); top != "" {
			t := snap.Totals()
			fmt.Printf("Wear attribution: top origin %q; %s physical / %s host across %d origins\n",
				top, report.HumanBytes(t.PhysBytes), report.HumanBytes(t.HostBytes), len(snap.Rows))
		}
	}
	switch {
	case dev.Bricked():
		fmt.Println("DEVICE BRICKED")
		exit(exitBricked)
	case dev.ReadOnly():
		fmt.Println("DEVICE READ-ONLY (graceful EOL: data preserved, writes refused)")
		exit(exitReadOnly)
	}
}

// bySuffix picks the JSON renderer for a path ending in .json, the CSV one
// otherwise.
func bySuffix(path string, csv, json func(io.Writer) error) func(io.Writer) error {
	if strings.HasSuffix(path, ".json") {
		return json
	}
	return csv
}
