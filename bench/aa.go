package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// benchmarkFile is BENCHMARK.json, as far as the A/A check and the tests
// read it.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(path string) (benchmarkFile, error) {
	var bf benchmarkFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	return bf, json.Unmarshal(raw, &bf)
}

// exactMetrics are the per-layer metrics that are counts of simulated or
// written things, not times: they must be identical in every traced run of
// the A/A check (same seed, same code).
var exactMetrics = []string{
	"extfs.dev_bytes_per_app_byte", "f2fs.dev_bytes_per_app_byte",
	"hostio.write_calls_per_cell", "hostio.fsyncs_per_cell", "hostio.renames_per_cell",
	"hostio.ckpt_kib_per_device_day", "core.host_gib_per_increment", "fleetd.cells_reused",
	"ftl.gc_copies_per_host_page", "ftl.drain_migrations_per_host_page", "ftl.nand_bytes_per_host_byte",
}

// resultLine is the last line a run prints.
type resultLine struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// childRun runs this binary once more as its own process — one run is one
// process — and parses the result line. The child's full output (every
// pass's wall and CPU time) is kept at logPath.
func childRun(self, logPath, dataDir string, args ...string) (resultLine, error) {
	var res resultLine
	cmd := exec.Command(self, append(args, "--datadir", dataDir, "--out", filepath.Dir(logPath))...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	if err := os.WriteFile(logPath, out.Bytes(), 0o644); err != nil {
		return res, err
	}
	if runErr != nil {
		return res, fmt.Errorf("%s %v: %w", self, args, runErr)
	}
	var last string
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, fmt.Errorf("%v: result line: %w", args, err)
	}
	if !res.Correct || res.Failed != 0 {
		return res, fmt.Errorf("%v: %d of %d operations failed", args, res.Failed, res.Attempted)
	}
	return res, nil
}

// quartiles returns the first and third quartile by the exclusive method
// (Python's statistics.quantiles(xs, n=4)), which is what the acceptance
// check uses.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		lo := int(pos)
		switch {
		case lo < 1:
			return s[0]
		case lo >= len(s):
			return s[len(s)-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return at(0.25), at(0.75)
}

// aaCheck is the A/A self-check: sets of runs of identical code must agree
// within the benchmark's own bounds. Each set runs every workload aaRuns
// times untraced (seeds 1..aaRuns, like the acceptance check, workloads
// interleaved in an order rotated per set) and once traced. For every
// end-to-end metric it prints each set's median, the spread within the set
// (interquartile range and full range over the median) and the largest
// difference between set medians against the bound, and exits non-zero if a
// bound is exceeded or an exact metric differs between two traced runs.
// aaRuns is the runs per workload in one set, as in the acceptance check.
const aaRuns = 10

func aaCheck(sets int, dataDir string, stdout, stderr io.Writer) int {
	bf, err := readBenchmarkFile(benchmarkJSONPath)
	if err != nil {
		fmt.Fprintf(stderr, "bench: -aa reads the bounds from %s: %v\n", benchmarkJSONPath, err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	logDir := filepath.Join(defaultOutDir, "aa")
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	secs := fmt.Sprint(bf.RunSeconds)

	// values[workload][metric][set] = the set's runs.
	values := map[string]map[string][][]float64{}
	exact := map[string]map[string][]float64{} // [workload][metric] = one value per set
	for _, w := range workloads {
		values[w.name] = map[string][][]float64{}
		exact[w.name] = map[string][]float64{}
		for _, m := range bf.EndToEnd {
			values[w.name][m.Name] = make([][]float64, sets)
		}
	}
	for set := 0; set < sets; set++ {
		for run := 0; run < aaRuns; run++ {
			for i := range workloads {
				w := workloads[(i+set)%len(workloads)]
				logPath := filepath.Join(logDir, fmt.Sprintf("set%d-%s-seed%d.log", set+1, w.name, run+1))
				res, err := childRun(self, logPath, dataDir, "--workload", w.name, "--seed", fmt.Sprint(run+1),
					"--seconds", secs, "--trace", "0")
				if err != nil {
					fmt.Fprintf(stderr, "bench: %v\n", err)
					return 1
				}
				for _, m := range bf.EndToEnd {
					values[w.name][m.Name][set] = append(values[w.name][m.Name][set], res.Metrics[m.Name].Value)
				}
				fmt.Fprintf(stdout, "set %d run %d %s done\n", set+1, run+1, w.name)
			}
		}
		for _, w := range workloads {
			logPath := filepath.Join(logDir, fmt.Sprintf("set%d-%s-traced.log", set+1, w.name))
			res, err := childRun(self, logPath, dataDir, "--workload", w.name, "--seed", fmt.Sprint(defaultSeed),
				"--seconds", secs, "--trace", "1")
			if err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
			for _, name := range exactMetrics {
				exact[w.name][name] = append(exact[w.name][name], res.Metrics[name].Value)
			}
		}
	}

	ok := true
	fmt.Fprintf(stdout, "\n%-14s %-22s %-*s %9s %9s %9s %7s\n", "workload", "metric", 11*sets, "set medians", "iqr/med", "range/med", "set diff", "bound")
	for _, w := range workloads {
		for _, m := range bf.EndToEnd {
			var medians []float64
			var worstIQR, worstRange float64
			for _, xs := range values[w.name][m.Name] {
				med := median(xs)
				medians = append(medians, med)
				q1, q3 := quartiles(xs)
				s := append([]float64(nil), xs...)
				sort.Float64s(s)
				worstIQR = max(worstIQR, (q3-q1)/med)
				worstRange = max(worstRange, (s[len(s)-1]-s[0])/med)
			}
			// The largest amount by which a later set's median is worse
			// than an earlier one's, as a share of the earlier.
			var diff float64
			for i := range medians {
				for j := i + 1; j < len(medians); j++ {
					d := (medians[j] - medians[i]) / medians[i]
					if m.Better == "higher" {
						d = -d
					}
					diff = max(diff, d)
				}
			}
			var cells strings.Builder
			for _, med := range medians {
				fmt.Fprintf(&cells, "%-11.5g", med)
			}
			verdict := ""
			// setup_s is one sample per run by nature: only its medians
			// are held to the bound, as in the acceptance check.
			if diff > m.Bound || (m.Name != "setup_s" && worstIQR > m.Bound) {
				verdict = "  EXCEEDED"
				ok = false
			}
			fmt.Fprintf(stdout, "%-14s %-22s %s %8.2f%% %8.2f%% %8.2f%% %6.0f%%%s\n",
				w.name, m.Name, cells.String(), 100*worstIQR, 100*worstRange, 100*diff, 100*m.Bound, verdict)
		}
	}
	for _, w := range workloads {
		for _, name := range exactMetrics {
			xs := exact[w.name][name]
			for _, x := range xs {
				if x != xs[0] {
					fmt.Fprintf(stdout, "%-14s %-34s differs between traced runs: %v  EXCEEDED\n", w.name, name, xs)
					ok = false
					break
				}
			}
		}
	}
	if !ok {
		return 1
	}
	fmt.Fprintf(stdout, "A/A check passed: %d sets x %d runs x %d workloads within bounds, exact metrics identical\n", sets, aaRuns, len(workloads))
	return 0
}
