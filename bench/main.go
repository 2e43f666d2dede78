// Command bench is the repository's benchmark: host time per unit of
// simulated work, end to end on four workloads and, in a separate traced
// run, layer by layer. It reaches every layer through its exported API only.
// README.md in this directory has the metric and workload tables, the run
// shape and the reasons for it.
//
// It is a module of its own (go.mod beside this file), run from the root of
// the repository; the program's working directory is then this one:
//
//	go run -C bench flashwear/bench --workload chip_table1 --seed 1 --seconds 25 --trace 0
//	go run -C bench flashwear/bench --workload campaign_ckpt --seed 1 --seconds 25 --trace 1
//	go run -C bench flashwear/bench -aa 3            # A/A self-check against BENCHMARK.json's bounds
//	go run -C bench flashwear/bench -write-expected  # refresh expected.json
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, metrics. The exit code is non-zero when any pass fails
// verification.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// processStart is taken as early as the program can: setup_s runs from here
// to the first timed pass.
var processStart = time.Now()

const (
	// minPasses is K: the least number of timed passes of identical work
	// in an end-to-end run. More are run only while they fit in -seconds.
	minPasses = 8
	// traceRounds is how many times a traced run alternates its pass
	// variants (traced, plain, and the workload's own A/B variant).
	traceRounds = 5
)

//go:embed expected.json
var expectedJSON []byte

// expectedFile is bench/expected.json: the fingerprint of every workload at
// defaultSeed and the sizes it was taken at.
type expectedFile struct {
	Seed         int64             `json:"seed"`
	Sizes        sizes             `json:"sizes"`
	Fingerprints map[string]string `json:"fingerprints"`
}

// metric is one named value of the result line.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// runConfig is one run: one workload, one process.
type runConfig struct {
	workload workloadDef
	seed     int64
	seconds  float64
	trace    bool
	size     sizes
	passes   int       // least timed passes (minPasses; tests use fewer)
	rounds   int       // traced-run rounds (traceRounds; tests use fewer)
	probes   probeSize // layer probe size (defaultProbeSize; tests shrink it)
	start    time.Time // setup_s is measured from here
	dataDir  string    // parent of the run's scratch directory
	outDir   string    // where a traced run leaves its Chrome trace
	// expected is the fingerprint every pass must produce; empty means
	// only pass-to-pass agreement is checked (non-default seed or sizes).
	expected string
	log      io.Writer
}

// runResult is the result line.
type runResult struct {
	Correct   bool
	Attempted int64
	Failed    int64
	Metrics   []metric
	// Fingerprint is the one all passes agreed on ("" if they did not).
	Fingerprint string
}

func (r runResult) MarshalJSON() ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(r.Metrics))
	for _, m := range r.Metrics {
		ms[m.Name] = value{m.Value, m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, ms})
}

// pass is one execution of a workload's fixed work with its host costs:
// wall time and process CPU time (user+sys, all threads) around it.
type pass struct {
	variant string
	wall    time.Duration
	cpu     time.Duration
	res     passResult
	err     error
	// Filled only when the run is traced (ReadMemStats stops the world).
	allocBytes, mallocs uint64
	gcCPU               float64 // seconds of GC CPU during the pass
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// refKernel times a fixed, allocation-free integer kernel: a number that
// moves only when the host does, to tell a slow machine from a slow commit.
func refKernel() time.Duration {
	start := time.Now()
	var table [1 << 12]uint64
	z := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 40_000_000; i++ {
		z ^= z << 13
		z ^= z >> 7
		z ^= z << 17
		table[z&(1<<12-1)] += z
	}
	refSink = table[z&(1<<12-1)]
	return time.Since(start)
}

var refSink uint64

// tmpfsMagic is statfs's f_type for tmpfs.
const tmpfsMagic = 0x01021994

func onTmpfs(dir string) bool {
	var st syscall.Statfs_t
	return syscall.Statfs(dir, &st) == nil && st.Type == tmpfsMagic
}

// runner holds the state shared by the passes of one run.
type runner struct {
	cfg      runConfig
	scratch  string
	nextDir  int
	rootSeed int64
}

// doPass runs one pass in a fresh private directory and removes it again.
// Only the workload's own call is timed: creating and deleting the
// directory is the harness's work, not the program's.
func (r *runner) doPass(variant string, env passEnv) pass {
	r.nextDir++
	env.dir = filepath.Join(r.scratch, fmt.Sprintf("pass-%03d", r.nextDir))
	p := pass{variant: variant}
	if err := os.Mkdir(env.dir, 0o755); err != nil {
		p.err = err
		return p
	}
	env.variant, env.seed, env.rootSeed = variant, r.cfg.seed, r.rootSeed
	if env.size == (sizes{}) {
		env.size = r.cfg.size
	}

	var m0, m1 runtime.MemStats
	var gc0 float64
	if r.cfg.trace {
		runtime.ReadMemStats(&m0)
		gc0 = gcCPUSeconds()
	}
	cpu0, start := cpuTime(), time.Now()
	p.res, p.err = r.cfg.workload.run(env)
	p.wall, p.cpu = time.Since(start), cpuTime()-cpu0
	if r.cfg.trace {
		runtime.ReadMemStats(&m1)
		p.allocBytes, p.mallocs = m1.TotalAlloc-m0.TotalAlloc, m1.Mallocs-m0.Mallocs
		p.gcCPU = gcCPUSeconds() - gc0
	}
	if err := os.RemoveAll(env.dir); err != nil && p.err == nil {
		p.err = err
	}
	return p
}

// fastestOf returns the pass with the least wall time among those of the
// given variant that ran without error, or nil.
func fastestOf(passes []pass, variant string) *pass {
	var best *pass
	for i := range passes {
		p := &passes[i]
		if p.variant != variant || p.err != nil {
			continue
		}
		if best == nil || p.wall < best.wall {
			best = p
		}
	}
	return best
}

// verify counts operations: one per simulated device-day of every timed
// pass. A pass that returned an error, or whose fingerprint is not the
// reference, fails all of its device-days. The reference is cfg.expected when
// there is one, else the first pass's. Passes that change the simulated
// outcome on purpose (wear tracing off) are checked among themselves.
func verify(cfg runConfig, passes []pass) (res runResult) {
	group := func(p pass) string {
		if p.variant == variantNoWearTrace {
			return p.variant
		}
		return "sim"
	}
	ref := map[string]pass{} // group -> its first pass that ran
	for _, p := range passes {
		if _, ok := ref[group(p)]; !ok && p.err == nil {
			ref[group(p)] = p
		}
	}
	agreed := true
	for _, p := range passes {
		g := group(p)
		want := ref[g].res.fingerprint
		if g == "sim" && cfg.expected != "" {
			want = cfg.expected
		}
		// A failed pass did not report its device-days: its group's did.
		ops := int64(math.Max(1, math.Round(ref[g].res.deviceDays)))
		res.Attempted += ops
		switch {
		case p.err != nil:
			fmt.Fprintf(cfg.log, "FAIL pass %q: %v\n", p.variant, p.err)
		case p.res.fingerprint != want:
			fmt.Fprintf(cfg.log, "FAIL pass %q: fingerprint %s, want %s\n", p.variant, p.res.fingerprint, want)
		default:
			continue
		}
		res.Failed += ops
		agreed = false
	}
	res.Correct = res.Failed == 0
	if agreed {
		res.Fingerprint = ref["sim"].res.fingerprint
	}
	return res
}

// Pass variants. An end-to-end run has the warm-up and plain passes only.
const (
	variantWarmup      = "warm-up"   // set-up's reduced, untimed pass
	variantPlain       = "plain"     // exactly what the end-to-end run times
	variantTraced      = "traced"    // spans on, interposers in
	variantNoWearTrace = "nowtrace"  // fleet_batch: Spec.WearTrace off
	variantRuntrace    = "runtrace"  // campaign_ckpt: runtrace recording window open
	variantTwoProcs    = "two-procs" // fleet_batch: GOMAXPROCS 2
)

// Where the benchmark reads and writes, relative to its working directory,
// which is its own (bench/) under "go run -C bench" and "go test"; it touches
// nothing outside the checkout.
const (
	defaultDataDir    = ".bench_scratch"
	defaultOutDir     = ".bench_out"
	benchmarkJSONPath = "../BENCHMARK.json"
	expectedJSONPath  = "expected.json"
)

// run performs one run: set-up, warm-up, the timed passes, verification,
// clean-up. It returns an error only when it could not measure at all;
// verification failures are in the result.
func run(cfg runConfig) (runResult, error) {
	if err := os.MkdirAll(cfg.dataDir, 0o755); err != nil {
		return runResult{}, err
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(simProcs))
	r := &runner{cfg: cfg}
	// Nothing this run wrote may still be flushing when the next one
	// starts: remove the scratch directory, then sync, whatever happened.
	defer func() {
		os.RemoveAll(r.scratch)
		syscall.Sync()
	}()

	// Set-up, timed from the process's start: scratch directory, sync,
	// reference kernel, one untimed, reduced warm-up pass.
	var err error
	if r.scratch, err = os.MkdirTemp(cfg.dataDir, "run-*"); err != nil {
		return runResult{}, err
	}
	syscall.Sync()
	ref := refKernel()
	// Searching for a population (population.go) is the benchmark's own
	// work and its cost is the seed's luck, so it is left out of setup_s.
	var generating time.Duration
	if cfg.workload.prepare != nil {
		began := time.Now()
		if r.rootSeed, err = cfg.workload.prepare(cfg.seed, cfg.size); err != nil {
			return runResult{}, err
		}
		generating = time.Since(began)
	}
	// The warm-up is set-up, not an operation: it is not counted, and if
	// it cannot run there is nothing to measure.
	warm := r.doPass(variantWarmup, passEnv{size: cfg.size.warmup()})
	if warm.err != nil {
		return runResult{}, fmt.Errorf("warm-up pass: %w", warm.err)
	}
	setup := time.Since(cfg.start) - generating
	tmpfs := onTmpfs(r.scratch)

	var passes []pass
	var rec *Recorder
	if cfg.trace {
		rec = NewRecorder()
		passes = append(passes, r.tracedPasses(rec)...)
	} else {
		begin := time.Now()
		var fastest time.Duration
		for k := 0; ; k++ {
			if k >= cfg.passes && time.Since(begin)+fastest > time.Duration(cfg.seconds*float64(time.Second)) {
				break
			}
			p := r.doPass(variantPlain, passEnv{})
			passes = append(passes, p)
			if p.err == nil && (fastest == 0 || p.wall < fastest) {
				fastest = p.wall
			}
		}
	}

	res := verify(cfg, passes)
	best := fastestOf(passes, variantPlain)
	if best == nil {
		return res, errors.New("no timed pass completed")
	}
	days := best.res.deviceDays
	if days <= 0 {
		return res, errors.New("the fastest pass completed no simulated device-days")
	}

	fmt.Fprintf(cfg.log, "workload %s seed %d root_seed %d passes %d nproc %d GOMAXPROCS %d workers %d %s commit %s\n",
		cfg.workload.name, cfg.seed, r.rootSeed, len(passes), runtime.NumCPU(), runtime.GOMAXPROCS(0), simWorkers, runtime.Version(), commit())
	fmt.Fprintf(cfg.log, "ops %d failed_ops %d bricked %d fingerprint %s\n", res.Attempted, res.Failed, best.res.bricked, res.Fingerprint)
	for _, p := range append([]pass{warm}, passes...) {
		fmt.Fprintf(cfg.log, "pass %-10s wall %.4fs cpu %.4fs\n", p.variant, p.wall.Seconds(), p.cpu.Seconds())
	}

	emit := func(name string, v float64, unit string) {
		res.Metrics = append(res.Metrics, metric{name, v, unit})
		fmt.Fprintf(cfg.log, "%-36s %14.6g %s\n", name, v, unit)
	}
	if !cfg.trace {
		// The fastest pass did all of the program's own work; only the
		// shared host's interference differs between passes.
		emit("device_days_per_s", days/best.wall.Seconds(), "1/s")
		emit("cpu_ms_per_device_day", best.cpu.Seconds()*1e3/days, "ms")
		emit("setup_s", setup.Seconds(), "s")
		return res, nil
	}

	emitHost(emit, passes, best, ref, tmpfs)
	probeLayers(emit, cfg.probes)
	emitWorkloadLayers(emit, cfg.workload.name, passes, best)
	if err := writeTrace(cfg, rec); err != nil {
		return res, err
	}
	return res, nil
}

// tracedPasses alternates the traced run's pass variants, rotating the
// order every round so no variant always runs first.
func (r *runner) tracedPasses(rec *Recorder) []pass {
	variants := []string{variantTraced, variantPlain}
	if v := r.cfg.workload.abVariant; v != "" {
		variants = append(variants, v)
	}
	var passes []pass
	for round := 0; round < r.cfg.rounds; round++ {
		for i := range variants {
			v := variants[(i+round)%len(variants)]
			var span *Span
			if v == variantTraced {
				span = rec.Root(fmt.Sprintf("%s pass %d", r.cfg.workload.name, round+1))
			}
			passes = append(passes, r.doPass(v, passEnv{span: span}))
			span.End()
		}
	}
	if r.cfg.workload.scaling {
		prev := runtime.GOMAXPROCS(2)
		passes = append(passes, r.doPass(variantTwoProcs, passEnv{}))
		runtime.GOMAXPROCS(prev)
	}
	return passes
}

func writeTrace(cfg runConfig, rec *Recorder) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.outDir, "trace-"+cfg.workload.name+".json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(cfg.log, "chrome trace: %s (%d spans)\n", path, len(rec.Spans()))
	return nil
}

// commit is the VCS revision the binary was built from, when the build
// recorded one (a plain checkout that is not a git repository has none).
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("bench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload to run: chip_table1, phone_f2fs, fleet_batch or campaign_ckpt")
	seed := fl.Int64("seed", defaultSeed, "input seed; only the default has a committed fingerprint")
	seconds := fl.Float64("seconds", 20, "how long to keep adding timed passes beyond the first 8")
	trace := fl.Int("trace", 0, "1 = traced run: per-layer metrics and a Chrome trace instead of the end-to-end metrics")
	dataDir := fl.String("datadir", defaultDataDir, "parent of the scratch directory (a memory-backed one keeps disk noise out)")
	outDir := fl.String("out", defaultOutDir, "directory a traced run writes its Chrome trace to")
	aa := fl.Int("aa", 0, "A/A self-check: this many sets of runs of every workload, compared against BENCHMARK.json's bounds")
	writeExpected := fl.Bool("write-expected", false, "run every workload once at the default seed and rewrite "+expectedJSONPath)
	if err := fl.Parse(args); err != nil {
		return 2
	}
	var expected expectedFile
	if err := json.Unmarshal(expectedJSON, &expected); err != nil {
		fmt.Fprintf(stderr, "bench: embedded expected.json: %v\n", err)
		return 2
	}
	base := runConfig{
		seed: *seed, seconds: *seconds, trace: *trace != 0, size: defaultSizes,
		passes: minPasses, rounds: traceRounds, probes: defaultProbeSize, start: processStart,
		dataDir: *dataDir, outDir: *outDir, log: stdout,
	}
	switch {
	case *writeExpected:
		return writeExpectedFile(base, stderr)
	case *aa > 0:
		return aaCheck(*aa, *dataDir, stdout, stderr)
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		fl.Usage()
		return 2
	}
	cfg := base
	cfg.workload = w
	if cfg.seed == expected.Seed && cfg.size == expected.Sizes {
		cfg.expected = expected.Fingerprints[w.name]
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// writeExpectedFile takes each workload's fingerprint from a short run at
// the default seed and sizes and rewrites bench/expected.json.
func writeExpectedFile(base runConfig, stderr io.Writer) int {
	out := expectedFile{Seed: defaultSeed, Sizes: defaultSizes, Fingerprints: map[string]string{}}
	for _, w := range workloads {
		cfg := base
		cfg.workload, cfg.seed, cfg.trace, cfg.passes, cfg.seconds, cfg.start = w, defaultSeed, false, 1, 0, time.Now()
		res, err := run(cfg)
		if err == nil && res.Fingerprint == "" {
			err = errors.New("passes disagree on the fingerprint")
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		out.Fingerprints[w.name] = res.Fingerprint
	}
	raw, err := json.MarshalIndent(out, "", "  ")
	if err == nil {
		err = os.WriteFile(expectedJSONPath, append(raw, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}
