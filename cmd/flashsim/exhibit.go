package main

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"flashwear/internal/experiments"
	"flashwear/internal/report"
	"flashwear/internal/telemetry"
	"flashwear/internal/wtrace"
)

// exhibit regenerates one entry of experiments.Exhibits. With no -scale or
// -maxlevel it runs the entry's pinned config, so the command printed next
// to a number in EXPERIMENTS.md reproduces that number.
func exhibit(args []string) {
	if len(args) == 0 {
		fail(exitUsage, fmt.Errorf("usage: flashsim exhibit list | <name> [flags]"))
	}
	if args[0] == "list" {
		tbl := report.NewTable("Exhibits (flashsim exhibit <name>)", "Name", "Pinned config", "Headlines", "Result")
		for _, ex := range experiments.Exhibits {
			tbl.AddRow(ex.Name, ex.Config.String(), len(ex.Headlines), ex.Ref)
		}
		tbl.Render(os.Stdout)
		return
	}
	ex, ok := experiments.Lookup(args[0])
	if !ok {
		fail(exitUsage, fmt.Errorf("unknown exhibit %q (flashsim exhibit list names them)", args[0]))
	}
	var o options
	fs := newFlagSet("exhibit "+ex.Name, &o, 0, "device capacity divisor (0 = the exhibit's pinned scale; 1 = full size, slow)")
	maxLevel := fs.Int("maxlevel", 0, "stop wear runs once the Type B indicator reaches this level (0 = the pinned level; 11 = estimated end of life)")
	asCSV := fs.Bool("csv", false, "emit the tables as CSV")
	observeFlags(fs, &o, 24*time.Hour)
	parse(fs, args[1:])

	cfg := ex.Config
	if o.scale > 0 {
		cfg.Scale = o.scale
	}
	if *maxLevel > 0 {
		cfg.MaxLevel = *maxLevel
	}
	cfg.Progress = func(f string, a ...any) { fmt.Fprintf(os.Stderr, f+"\n", a...) }

	// Every wear run hands its sampled series and its tracer over when it
	// ends; the outputs stay open for the whole exhibit.
	var s sinks
	var res experiments.Result
	run := func() (err error) {
		res, err = ex.Run(cfg)
		return err
	}
	if o.metricsCSV != "" {
		cfg.MetricsEvery, cfg.MetricsSink = o.metricsEvery, s.series
		run = streaming(o.metricsCSV, &s.metrics, run)
	}
	if o.wearLedger != "" || o.wearTrace != "" {
		cfg.WearSink = s.wear
		if o.wearTrace != "" {
			cfg.WearEvents = 1 << 20
		}
		run = streaming(o.wearLedger, &s.ledger, run)
	}
	err := run()
	if err == nil && o.wearTrace != "" {
		err = report.WriteTo(o.wearTrace, func(w io.Writer) error { return wtrace.WriteChrome(w, s.procs...) })
	}
	if err != nil {
		fail(exitError, err)
	}

	headlines := report.NewTable("Headlines at "+cfg.String(), "Metric", "Value")
	for _, h := range res.Headlines {
		headlines.AddRow(h.Name, h.Digits())
	}
	for _, tbl := range append(res.Tables, headlines) {
		if *asCSV {
			if err := tbl.RenderCSV(os.Stdout); err != nil {
				fail(exitError, err)
			}
		} else {
			tbl.Render(os.Stdout)
		}
		fmt.Println()
	}
}

// streaming wraps run so that *w is open on path ("-" = stdout) for its
// duration and a failed close fails the run; no path, no wrapping.
func streaming(path string, w *io.Writer, run func() error) func() error {
	if path == "" {
		return run
	}
	return func() error {
		return report.WriteTo(path, func(f io.Writer) error {
			*w = f
			return run()
		})
	}
}

// sinks receives what each wear run of an exhibit hands over. Write errors
// are returned, so the experiment — and the command — fails on them.
type sinks struct {
	metrics, ledger             io.Writer // nil = not asked for
	metricsHeader, ledgerHeader bool
	procs                       []wtrace.ProcessTrace
}

// series renders a run's sampled series in long form — one
// (label,hours,metric,value) row per instrument per sample — so runs with
// different instrument sets (hybrid vs plain devices, ext4 vs F2FS) share
// one plottable file. Hours are full-scale: series times are at device
// scale and multiply back by the run's effective scale divisor.
func (s *sinks) series(label string, eff int64, ser *telemetry.Series) error {
	var sb strings.Builder
	if !s.metricsHeader {
		sb.WriteString("label,hours,metric,value\n")
		s.metricsHeader = true
	}
	for _, row := range ser.Rows {
		hours := strconv.FormatFloat(row.At.Hours()*float64(eff), 'g', -1, 64)
		for i, v := range row.Values {
			fmt.Fprintf(&sb, "%s,%s,%s,%s\n", label, hours, ser.Columns[i], telemetry.FormatCell(ser.Kinds[i], v))
		}
	}
	_, err := io.WriteString(s.metrics, sb.String())
	return err
}

// wear streams a run's ledger as labeled CSV (counts multiplied back to
// full scale) and keeps its Chrome process for the combined trace file.
func (s *sinks) wear(label string, eff int64, tr *wtrace.Tracer) error {
	if s.ledger != nil {
		snap := tr.Snapshot()
		snap.Scale(eff)
		if err := snap.WriteLabeledCSV(s.ledger, label, !s.ledgerHeader); err != nil {
			return err
		}
		s.ledgerHeader = true
	}
	p := tr.Process(label)
	p.Pid = len(s.procs) + 1
	s.procs = append(s.procs, p)
	return nil
}
