// Command benchab runs one bench/ workload as a paired A/B between a git
// ref (the parent) and the working tree it is run from (the change), and
// prints the result as one benchRecord, the schema of the root
// bench_test.go:
//
//	go run ./scripts/benchab -ref HEAD~1 -workload campaign_ckpt -pairs 10 -seconds 28
//
// It extracts the ref into a temporary directory with git archive (no write
// under .git), builds bench/ in both trees with -trimpath -buildvcs=false (no
// path or VCS stamp), and runs the pairs ABBA: pair i runs the parent first
// when i is even, the change first when it is odd. Before each timed run, a
// short traced run of the same binary reads that side's host.ref_kernel_ms, the
// host's speed at that moment. The record goes to stdout, and with -append to
// BENCH_<workload>.json. On stderr it prints each metric's sign test and its
// median ratio over the pairs whose ref_kernel_ms agree within 10%.
package main

//flashvet:ops-domain benchab times bench binaries on the host; the wall-clock and CPU figures it reads are its output and feed no simulation

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

// The benchRecord schema of the root bench_test.go, field for field.
type benchRecord struct {
	Refs        struct{ Parent, Change string } `json:"refs"`
	Workload    string                          `json:"workload"`
	Seed        int64                           `json:"seed"`
	Seconds     float64                         `json:"seconds"`
	Host        string                          `json:"host"`
	First       []string                        `json:"first"`
	RefKernelMs struct {
		Parent []float64 `json:"parent"`
		Change []float64 `json:"change"`
	} `json:"ref_kernel_ms"`
	Metrics map[string]*benchMetric `json:"metrics"`
}

type benchMetric struct {
	Better        string       `json:"better"`
	Parent        []float64    `json:"parent"`
	Change        []float64    `json:"change"`
	ParentSummary benchSummary `json:"parent_summary"`
	ChangeSummary benchSummary `json:"change_summary"`
	Ratio         benchSummary `json:"ratio"`
	Wins          int          `json:"wins"`
}

type benchSummary struct {
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

// endToEnd are BENCHMARK.json's end-to-end metrics and which way is better.
var endToEnd = []struct{ name, better string }{
	{"device_days_per_s", "higher"},
	{"cpu_ms_per_device_day", "lower"},
	{"setup_s", "lower"},
}

// agree is how far apart, as a fraction of the smaller, a pair's two
// ref_kernel_ms readings may be for the pair to count as run on one host
// speed.
const agree = 0.10

func main() {
	ref := flag.String("ref", "", "git ref of the parent side (required)")
	workload := flag.String("workload", "", "bench workload (required)")
	pairs := flag.Int("pairs", 10, "number of ABBA pairs")
	seconds := flag.Float64("seconds", 28, "bench --seconds of each timed run")
	seed := flag.Int64("seed", 1, "bench --seed of every run")
	dataDir := flag.String("datadir", "", "bench --datadir of every run (default: bench's own)")
	appendRec := flag.Bool("append", false, "append the record to BENCH_<workload>.json at the repository root")
	flag.Parse()
	if *ref == "" || *workload == "" || *pairs < 1 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*ref, *workload, *pairs, *seconds, *seed, *dataDir, *appendRec); err != nil {
		fmt.Fprintln(os.Stderr, "benchab:", err)
		os.Exit(1)
	}
}

func run(ref, workload string, pairs int, seconds float64, seed int64, dataDir string, appendRec bool) error {
	root, err := git("", "rev-parse", "--show-toplevel")
	if err != nil {
		return err
	}
	parentRev, err := git(root, "rev-parse", ref+"^{commit}")
	if err != nil {
		return err
	}
	changeRev, err := git(root, "rev-parse", "HEAD")
	if err != nil {
		return err
	}
	if dirty, err := git(root, "status", "--porcelain", "--untracked-files=no"); err != nil {
		return err
	} else if dirty != "" {
		changeRev = "the working tree on " + changeRev
	}

	tmp, err := os.MkdirTemp("", "benchab-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	tree, tarball := filepath.Join(tmp, "parent"), filepath.Join(tmp, "parent.tar")
	if _, err := git(root, "archive", "-o", tarball, parentRev); err != nil {
		return err
	}
	if err := os.Mkdir(tree, 0o755); err != nil {
		return err
	}
	if out, err := exec.Command("tar", "-x", "-f", tarball, "-C", tree).CombinedOutput(); err != nil {
		return fmt.Errorf("extracting %s: %w: %s", parentRev, err, out)
	}

	bins := map[string]string{"parent": filepath.Join(tmp, "bench-parent"), "change": filepath.Join(tmp, "bench-change")}
	for side, src := range map[string]string{"parent": tree, "change": root} {
		cmd := exec.Command("go", "build", "-C", filepath.Join(src, "bench"), "-trimpath", "-buildvcs=false", "-o", bins[side], ".")
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("building %s's bench: %w", side, err)
		}
	}

	rec := benchRecord{Workload: workload, Seed: seed, Seconds: seconds, Host: host(), Metrics: map[string]*benchMetric{}}
	rec.Refs.Parent, rec.Refs.Change = parentRev, changeRev
	for _, m := range endToEnd {
		rec.Metrics[m.name] = &benchMetric{Better: m.better}
	}
	bench := func(side string, args ...string) (map[string]float64, error) {
		args = append([]string{"--workload", workload, "--seed", fmt.Sprint(seed)}, args...)
		if dataDir != "" {
			args = append(args, "--datadir", dataDir)
		}
		return runBench(bins[side], tmp, args)
	}
	for i := 0; i < pairs; i++ {
		order := []string{"parent", "change"}
		if i%2 == 1 {
			order = []string{"change", "parent"}
		}
		rec.First = append(rec.First, order[0])
		for _, side := range order {
			traced, err := bench(side, "--trace", "1", "--seconds", "1", "--out", filepath.Join(tmp, "trace-"+side))
			if err != nil {
				return err
			}
			timed, err := bench(side, "--seconds", fmt.Sprint(seconds))
			if err != nil {
				return err
			}
			rk := traced["host.ref_kernel_ms"]
			if side == "parent" {
				rec.RefKernelMs.Parent = append(rec.RefKernelMs.Parent, rk)
			} else {
				rec.RefKernelMs.Change = append(rec.RefKernelMs.Change, rk)
			}
			for _, e := range endToEnd {
				m := rec.Metrics[e.name]
				v, ok := timed[e.name]
				if !ok {
					return fmt.Errorf("%s run reports no %s", side, e.name)
				}
				if side == "parent" {
					m.Parent = append(m.Parent, v)
				} else {
					m.Change = append(m.Change, v)
				}
			}
			fmt.Fprintf(os.Stderr, "pair %d %s: ref_kernel_ms %.1f device_days_per_s %.2f\n", i+1, side, rk, timed["device_days_per_s"])
		}
	}
	for _, m := range endToEnd {
		summarise(rec.Metrics[m.name])
		report(m.name, rec.Metrics[m.name], rec)
	}

	out, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if appendRec {
		return appendTo(filepath.Join(root, "BENCH_"+workload+".json"), rec)
	}
	return nil
}

// runBench runs one bench binary in dir and returns the metrics of the
// JSON line it ends its output with. A run that is not correct fails.
func runBench(bin, dir string, args []string) (map[string]float64, error) {
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	err := cmd.Run()
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := sc.Text(); strings.HasPrefix(line, "{") {
			last = line
		}
	}
	var res struct {
		Correct bool
		Failed  int64
		Metrics map[string]struct{ Value float64 }
	}
	if jerr := json.Unmarshal([]byte(last), &res); jerr != nil {
		return nil, fmt.Errorf("%s %s: no result line (%v, %v)", bin, strings.Join(args, " "), err, jerr)
	}
	if err != nil || !res.Correct || res.Failed != 0 {
		return nil, fmt.Errorf("%s %s: correct=%v failed=%d: %v", bin, strings.Join(args, " "), res.Correct, res.Failed, err)
	}
	vals := make(map[string]float64, len(res.Metrics))
	for k, v := range res.Metrics {
		vals[k] = v.Value
	}
	return vals, nil
}

// ratio is pair i's improvement factor: above 1 when the change is better.
func ratio(m *benchMetric, i int) float64 {
	if m.Better == "higher" {
		return m.Change[i] / m.Parent[i]
	}
	return m.Parent[i] / m.Change[i]
}

func summarise(m *benchMetric) {
	ratios := make([]float64, len(m.Parent))
	m.Wins = 0
	for i := range ratios {
		ratios[i] = ratio(m, i)
		if ratios[i] > 1 {
			m.Wins++
		}
	}
	m.ParentSummary, m.ChangeSummary, m.Ratio = quartiles(m.Parent), quartiles(m.Change), quartiles(ratios)
}

// report prints a metric's sign test, and its median ratio over the pairs
// run at one host speed.
func report(name string, m *benchMetric, rec benchRecord) {
	n := len(m.Parent)
	var same []float64
	for i := 0; i < n; i++ {
		p, c := rec.RefKernelMs.Parent[i], rec.RefKernelMs.Change[i]
		if math.Abs(p-c) <= agree*math.Min(p, c) {
			same = append(same, ratio(m, i))
		}
	}
	fmt.Fprintf(os.Stderr, "%s: change better in %d of %d pairs (two-sided sign test p = %.4f); median ratio %.4f, IQR %.4f-%.4f",
		name, m.Wins, n, signTest(m.Wins, n), m.Ratio.Median, m.Ratio.Q1, m.Ratio.Q3)
	if len(same) > 0 {
		fmt.Fprintf(os.Stderr, "; over the %d pairs whose ref_kernel_ms agree within %.0f%%: median ratio %.4f\n", len(same), 100*agree, quartiles(same).Median)
	} else {
		fmt.Fprintf(os.Stderr, "; no pair's ref_kernel_ms agree within %.0f%%\n", 100*agree)
	}
}

// signTest is the two-sided binomial probability of a split at least as
// uneven as wins of n under a fair coin.
func signTest(wins, n int) float64 {
	k := max(wins, n-wins)
	var tail float64
	for i := k; i <= n; i++ {
		tail += binom(n, i)
	}
	return math.Min(1, 2*tail/math.Pow(2, float64(n)))
}

func binom(n, k int) float64 {
	r := 1.0
	for i := 1; i <= k; i++ {
		r = r * float64(n-k+i) / float64(i)
	}
	return r
}

// quartiles interpolates linearly between order statistics.
func quartiles(xs []float64) benchSummary {
	s := slices.Clone(xs)
	slices.Sort(s)
	q := func(p float64) float64 {
		pos := p * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[lo]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return benchSummary{Q1: q(0.25), Median: q(0.5), Q3: q(0.75)}
}

// appendTo appends rec to the JSON array in path, creating it if needed.
func appendTo(path string, rec benchRecord) error {
	var recs []json.RawMessage
	raw, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(raw, &recs); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	case !errors.Is(err, os.ErrNotExist):
		return err
	}
	one, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	recs = append(recs, one)
	out, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// host describes the machine the way the committed records do.
func host() string {
	cpu := "unknown CPU"
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("%d vCPU %s, %s/%s, %s; timed passes on bench's GOMAXPROCS; each side's host.ref_kernel_ms from a short traced run just before its timed run",
		runtime.NumCPU(), cpu, runtime.GOOS, runtime.GOARCH, runtime.Version())
}

// git runs a git command in dir and returns its trimmed output.
func git(dir string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %w: %s", strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
	}
	return strings.TrimSpace(string(out)), nil
}
