// Command fleetd runs the fleet campaign service and talks to it.
//
// Server mode:
//
//	fleetd serve -addr :7070 -data /var/lib/fleetd
//
// starts the HTTP/JSON control plane (see internal/fleetd for the API).
// With -data, every campaign checkpoints its shards there at the
// configured cadence and survives kill -9: restart the server and the
// campaigns come back paused, resumable from their last complete epoch.
//
// Client mode (every other subcommand; -addr selects the server):
//
//	fleetd submit -devices 100000 -days 365 -shards 8 -checkpoint-every 30
//	fleetd list
//	fleetd status <id>
//	fleetd series <id>        # committed day series, CSV on stdout
//	fleetd ledger <id>        # per-origin wear ledger, CSV on stdout
//	fleetd result <id>        # final aggregate, JSON on stdout
//	fleetd pause <id>
//	fleetd resume <id>
//	fleetd fork <id> -days 730 -faults "read=1e-4"
//	fleetd wait <id>          # poll until done/failed/paused
//	fleetd events <id>        # journal events so far, JSON on stdout
//	fleetd watch <id>         # live event stream, one line per event
//	fleetd trace -for 5s -o trace.json   # capture an execution-trace window
//	fleetd trace start|stop|status|fetch # or drive the window by hand
//
// Exit codes: 0 on success, 1 on runtime or server error, 2 on usage
// error.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"flashwear/internal/fleetd"
	"flashwear/internal/hostio"
	"flashwear/internal/obs"
	"flashwear/internal/profiling"
	"flashwear/internal/report"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "serve":
		err = serve(args)
	case "submit":
		err = submit(args)
	case "list":
		err = list(args)
	case "status":
		err = campaignCmd(args, func(cl *fleetd.Client, id string) error {
			st, err := cl.Status(id)
			if err != nil {
				return err
			}
			return printJSON(st)
		})
	case "series":
		err = campaignCmd(args, func(cl *fleetd.Client, id string) error {
			return printRaw(cl.SeriesCSV(id))
		})
	case "ledger":
		err = campaignCmd(args, func(cl *fleetd.Client, id string) error {
			return printRaw(cl.LedgerCSV(id))
		})
	case "result":
		err = campaignCmd(args, func(cl *fleetd.Client, id string) error {
			agg, err := cl.Result(id)
			if err != nil {
				return err
			}
			return printJSON(agg)
		})
	case "pause":
		err = campaignCmd(args, func(cl *fleetd.Client, id string) error {
			st, err := cl.Pause(id)
			if err != nil {
				return err
			}
			return printJSON(st)
		})
	case "resume":
		err = campaignCmd(args, func(cl *fleetd.Client, id string) error {
			st, err := cl.Resume(id)
			if err != nil {
				return err
			}
			return printJSON(st)
		})
	case "fork":
		err = fork(args)
	case "wait":
		err = wait(args)
	case "events":
		err = events(args)
	case "watch":
		err = watch(args)
	case "trace":
		err = trace(args)
	case "-h", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "fleetd: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetd:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: fleetd <command> [flags]

commands:
  serve    run the campaign service
  submit   submit a campaign
  list     list campaigns
  status   show one campaign's status
  series   print the committed day series (CSV)
  ledger   print the per-origin wear ledger (CSV)
  result   print the final aggregate (JSON)
  pause    pause a running campaign
  resume   resume a paused campaign
  fork     fork a quiescent campaign
  wait     poll until a campaign stops running
  events   print a campaign's journal events (JSON)
  watch    stream a campaign's events live until it stops
  trace    capture a wall-clock execution trace from the server

run "fleetd <command> -h" for the command's flags.`)
}

// flags shared by every client subcommand.
func clientFlags(fs *flagSet) *string {
	return fs.String("addr", "http://localhost:7070", "fleetd server base URL")
}

func serve(args []string) error {
	fs := newFlagSet("serve")
	addr := fs.String("addr", ":7070", "listen address")
	data := fs.String("data", "", "checkpoint data directory (empty = in-memory campaigns only)")
	readHeader := fs.Duration("read-header-timeout", 10*time.Second, "slowloris guard: max time to receive request headers")
	readTimeout := fs.Duration("read-timeout", 30*time.Second, "max time to receive a full request")
	writeTimeout := fs.Duration("write-timeout", 60*time.Second, "max time to write a response (the SSE watch stream clears its own deadline)")
	grace := fs.Duration("shutdown-grace", 15*time.Second, "graceful-shutdown budget: sweeps drain at cell boundaries, then hard-pause")
	faultPlan := fs.String("host-fault-plan", "", "inject host I/O faults, hostio.ParsePlan grammar (fault drills; e.g. \"class=checkpoint,fault=enospc,from=3,until=6\")")
	retries := fs.Int("checkpoint-retries", 3, "checkpoint write attempts before a campaign degrades to checkpointing-paused")
	tracePath := fs.String("trace", "", "record runtrace spans for the server's lifetime and write a Chrome trace-event file here on shutdown")
	startProfiles, stopProfiles := profiling.Flags(fs.FlagSet) // the server's lifetime; heap at shutdown
	fs.parse(args)

	if err := startProfiles(); err != nil {
		return err
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, "fleetd:", err)
		}
	}()

	var hfs hostio.FS = hostio.OS{}
	if *faultPlan != "" {
		plan, err := hostio.ParsePlan(*faultPlan)
		if err != nil {
			return fmt.Errorf("-host-fault-plan: %w", err)
		}
		hfs = hostio.NewFaultFS(hostio.OS{}, plan)
		fmt.Fprintf(os.Stderr, "fleetd: host-fault injection ACTIVE: %q\n", *faultPlan)
	}
	mgr, err := fleetd.NewManagerOpts(fleetd.Options{
		DataDir:         *data,
		FS:              hfs,
		CheckpointRetry: obs.Backoff{Attempts: *retries},
	})
	if err != nil {
		return err
	}
	if *data != "" {
		for _, c := range mgr.List() {
			st := c.Status()
			fmt.Fprintf(os.Stderr, "fleetd: adopted campaign %s (%s, %d devices, %d days) — paused; resume to continue\n",
				st.ID, st.Name, st.Devices, st.Days)
		}
	}
	mgr.SetLogger(obs.NewLogger(os.Stderr))
	if *tracePath != "" {
		mgr.Trace().StartRecording()
		defer func() {
			mgr.Trace().StopRecording()
			if err := report.WriteTo(*tracePath, mgr.Trace().WriteChrome); err != nil {
				fmt.Fprintln(os.Stderr, "fleetd: -trace:", err)
			} else {
				fmt.Fprintf(os.Stderr, "fleetd: wrote execution trace to %s (%d spans)\n",
					*tracePath, mgr.Trace().SpanCount())
			}
		}()
	}
	fmt.Fprintf(os.Stderr, "fleetd: listening on %s (data: %q)\n", *addr, *data)
	handler := fleetd.NewServer(mgr)
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: *readHeader,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	stop() // restore default signal behavior: a second signal kills hard

	// Graceful drain: every sweep stops at its next cell boundary — the
	// last completed cell is already fsynced and renamed, so this IS the
	// final checkpoint. If the grace budget expires (a huge cell mid-
	// flight), hard-pause: the abandoned .tmp is swept on next startup and
	// the cell recomputes on resume.
	fmt.Fprintln(os.Stderr, "fleetd: signal received; draining campaigns")
	graceCtx, cancelGrace := context.WithTimeout(context.Background(), *grace)
	defer cancelGrace()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for _, c := range mgr.List() {
			c.Drain()
		}
		for _, c := range mgr.List() {
			c.Wait()
		}
	}()
	select {
	case <-drained:
	case <-graceCtx.Done():
		fmt.Fprintln(os.Stderr, "fleetd: drain grace expired; hard-pausing remaining campaigns")
		for _, c := range mgr.List() {
			c.Pause()
		}
		<-drained
	}
	handler.Shutdown() // release SSE watch streams
	shutCtx, cancelShut := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelShut()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	fmt.Fprintln(os.Stderr, "fleetd: shutdown complete")
	return nil
}

// specFlags registers the campaign-spec flags on fs and returns a closure
// building the spec after parsing.
func specFlags(fs *flagSet) func() (fleetd.CampaignSpec, error) {
	specPath := fs.String("spec", "", "read the full CampaignSpec from this JSON file (\"-\" = stdin); other spec flags override")
	name := fs.String("name", "", "campaign label")
	devices := fs.Int("devices", 0, "population size")
	days := fs.Int("days", 0, "simulated horizon per device, whole full-scale days")
	seed := fs.Int64("seed", 42, "root seed")
	scale := fs.Int64("scale", 0, "device capacity divisor")
	buggy := fs.Float64("buggy", 0, "fraction of devices running a write-buggy app")
	attack := fs.Float64("attack", 0, "fraction of devices under deliberate wear attack")
	faults := fs.String("faults", "", "fault plan, faultinject.ParsePlan grammar")
	wearTrace := fs.Bool("wear-trace", false, "attach per-origin wear attribution (enables the ledger endpoint)")
	shards := fs.Int("shards", 0, "shard count (scheduling only)")
	workers := fs.Int("workers", 0, "per-shard worker pool size (scheduling only)")
	every := fs.Int("checkpoint-every", 0, "checkpoint cadence in simulated days (scheduling only)")
	return func() (fleetd.CampaignSpec, error) {
		var spec fleetd.CampaignSpec
		if *specPath != "" {
			raw, err := readFileOrStdin(*specPath)
			if err != nil {
				return spec, err
			}
			if err := json.Unmarshal(raw, &spec); err != nil {
				return spec, fmt.Errorf("-spec: %w", err)
			}
		}
		// An explicitly set flag overrides the file even when it sets a
		// zero value (-buggy 0, -faults "", -wear-trace=false).
		if fs.changed("name") {
			spec.Name = *name
		}
		if fs.changed("devices") {
			spec.Devices = *devices
		}
		if fs.changed("days") {
			spec.Days = *days
		}
		if fs.changed("seed") || spec.Seed == 0 {
			spec.Seed = *seed
		}
		if fs.changed("scale") {
			spec.Scale = *scale
		}
		if fs.changed("buggy") {
			spec.Buggy = *buggy
		}
		if fs.changed("attack") {
			spec.Attack = *attack
		}
		if fs.changed("faults") {
			spec.Faults = *faults
		}
		if fs.changed("wear-trace") {
			spec.WearTrace = *wearTrace
		}
		if fs.changed("shards") {
			spec.Shards = *shards
		}
		if fs.changed("workers") {
			spec.Workers = *workers
		}
		if fs.changed("checkpoint-every") {
			spec.CheckpointEvery = *every
		}
		return spec, nil
	}
}

func submit(args []string) error {
	fs := newFlagSet("submit")
	addr := clientFlags(fs)
	build := specFlags(fs)
	fs.parse(args)
	spec, err := build()
	if err != nil {
		return err
	}
	cl := &fleetd.Client{BaseURL: *addr}
	st, err := cl.Submit(spec)
	if err != nil {
		return err
	}
	return printJSON(st)
}

func list(args []string) error {
	fs := newFlagSet("list")
	addr := clientFlags(fs)
	fs.parse(args)
	cl := &fleetd.Client{BaseURL: *addr}
	out, err := cl.List()
	if err != nil {
		return err
	}
	return printJSON(out)
}

func fork(args []string) error {
	fs := newFlagSet("fork")
	addr := clientFlags(fs)
	name := fs.String("name", "", "fork label")
	days := fs.Int("days", 0, "new horizon (0 = keep)")
	faults := fs.String("faults", "", "replacement fault plan for future epochs")
	faultsSet := fs.Bool("clear-faults", false, "remove the fault plan for future epochs")
	fs.parse(args)
	id, err := fs.arg(0, "campaign id")
	if err != nil {
		return err
	}
	opts := fleetd.ForkOptions{Name: *name, Days: *days}
	if *faults != "" || *faultsSet {
		f := *faults
		opts.Faults = &f
	}
	cl := &fleetd.Client{BaseURL: *addr}
	st, err := cl.Fork(id, opts)
	if err != nil {
		return err
	}
	return printJSON(st)
}

func wait(args []string) error {
	fs := newFlagSet("wait")
	addr := clientFlags(fs)
	every := fs.Duration("every", 2*time.Second, "poll interval")
	fs.parse(args)
	id, err := fs.arg(0, "campaign id")
	if err != nil {
		return err
	}
	cl := &fleetd.Client{BaseURL: *addr}
	for {
		st, err := cl.Status(id)
		if err != nil {
			return err
		}
		if st.State != fleetd.StateRunning {
			if err := printJSON(st); err != nil {
				return err
			}
			if st.State == fleetd.StateFailed {
				return fmt.Errorf("campaign %s failed: %s", id, st.Error)
			}
			return nil
		}
		fmt.Fprintf(os.Stderr, "fleetd: %s: day %d/%d, %d bricked\n", id, st.DaysDone, st.Days, st.Bricked)
		//flashvet:ignore wallclock client-side poll pacing against a remote server; no simulation results flow through it
		time.Sleep(*every)
	}
}

func events(args []string) error {
	fs := newFlagSet("events")
	addr := clientFlags(fs)
	since := fs.Uint64("since", 0, "only events with seq > since")
	fs.parse(args)
	id, err := fs.arg(0, "campaign id")
	if err != nil {
		return err
	}
	cl := &fleetd.Client{BaseURL: *addr}
	evs, err := cl.Events(id, *since)
	if err != nil {
		return err
	}
	return printJSON(evs)
}

// watch tails a campaign's journal over SSE, rendering one line per
// event, until the campaign reaches done/failed/paused. It reconnects
// from the last seen sequence number if the stream drops mid-run.
func watch(args []string) error {
	fs := newFlagSet("watch")
	addr := clientFlags(fs)
	since := fs.Uint64("since", 0, "resume the stream after this seq")
	fs.parse(args)
	id, err := fs.arg(0, "campaign id")
	if err != nil {
		return err
	}
	cl := &fleetd.Client{BaseURL: *addr}
	last := *since
	var errStop = fmt.Errorf("campaign stopped")
	var failure error
	for {
		err := cl.Watch(id, last, func(e obs.Event) error {
			last = e.Seq
			line := fmt.Sprintf("%s  #%d %s", time.UnixMilli(e.WallMs).UTC().Format("15:04:05"), e.Seq, e.Type)
			if e.Day > 0 {
				line += fmt.Sprintf(" day=%d", e.Day)
			}
			if e.Epoch > 0 {
				line += fmt.Sprintf(" shard=%d epoch=%d", e.Shard, e.Epoch)
			}
			if e.Rule != "" {
				line += fmt.Sprintf(" rule=%s value=%s", e.Rule, e.Value)
			}
			if e.Detail != "" {
				line += " " + e.Detail
			}
			fmt.Println(line)
			switch e.Type {
			case "done", "paused":
				return errStop
			case "failed":
				failure = fmt.Errorf("campaign %s failed: %s", id, e.Detail)
				return errStop
			}
			return nil
		})
		if err == errStop {
			return failure
		}
		if err != nil {
			return err
		}
		// Clean stream end without a terminal event: the server dropped a
		// slow subscriber or restarted. Back off briefly, then resume from
		// the last seen seq.
		fmt.Fprintf(os.Stderr, "fleetd: watch: stream ended, reconnecting from seq %d\n", last)
		//flashvet:ignore wallclock client-side reconnect backoff against a remote server; no simulation results flow through it
		time.Sleep(time.Second)
	}
}

// trace drives the server's runtrace recording window (DESIGN.md §14).
// With no positional action it captures a window: start recording, wait
// -for, stop, fetch the Chrome trace-event file. The explicit actions
// (start / stop / status / fetch) manage a window by hand — e.g. start
// one before submitting a campaign and fetch it after.
func trace(args []string) error {
	fs := newFlagSet("trace")
	addr := clientFlags(fs)
	window := fs.Duration("for", 2*time.Second, "capture window length for the default start+wait+stop+fetch round-trip")
	out := fs.String("o", "trace.json", "output path for the Chrome trace-event file (\"-\" = stdout)")
	fs.parse(args)
	cl := &fleetd.Client{BaseURL: *addr}
	action := "capture"
	if fs.NArg() > 0 {
		action = fs.Arg(0)
	}
	fetch := func() error {
		raw, err := cl.TraceChrome()
		if err != nil {
			return err
		}
		if *out == "-" {
			_, err = os.Stdout.Write(raw)
			return err
		}
		if err := os.WriteFile(*out, raw, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "fleetd: wrote %s (%d bytes); open it in chrome://tracing or https://ui.perfetto.dev\n", *out, len(raw))
		return nil
	}
	switch action {
	case "capture":
		if _, err := cl.TraceStart(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "fleetd: recording for %s...\n", *window)
		//flashvet:ignore wallclock client-side capture window against a remote server; no simulation results flow through it
		time.Sleep(*window)
		if st, err := cl.TraceStop(); err != nil {
			return err
		} else if st.Dropped > 0 {
			fmt.Fprintf(os.Stderr, "fleetd: warning: %d spans dropped at the buffer cap\n", st.Dropped)
		}
		return fetch()
	case "start":
		st, err := cl.TraceStart()
		if err != nil {
			return err
		}
		return printJSON(st)
	case "stop":
		st, err := cl.TraceStop()
		if err != nil {
			return err
		}
		return printJSON(st)
	case "status":
		st, err := cl.TraceStatus()
		if err != nil {
			return err
		}
		return printJSON(st)
	case "fetch":
		return fetch()
	default:
		return fmt.Errorf("trace: unknown action %q (want start, stop, status or fetch)", action)
	}
}

// campaignCmd runs a client action that takes only -addr and a campaign
// id argument.
func campaignCmd(args []string, fn func(*fleetd.Client, string) error) error {
	fs := newFlagSet("command")
	addr := clientFlags(fs)
	fs.parse(args)
	id, err := fs.arg(0, "campaign id")
	if err != nil {
		return err
	}
	return fn(&fleetd.Client{BaseURL: *addr}, id)
}

func printJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func printRaw(raw []byte, err error) error {
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(raw)
	return err
}

func readFileOrStdin(path string) ([]byte, error) {
	if path == "-" {
		return readAllStdin()
	}
	return os.ReadFile(path)
}
