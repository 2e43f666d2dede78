// The benchmark harness regenerates every exhibit of the reproduction — the
// paper's tables and figures, the ablations of DESIGN.md §4 and the
// extensions — from the one table that lists them, experiments.Exhibits,
// each at its pinned config, and reports the exhibit's headline quantities
// as custom metrics, so
//
//	go test -bench=Exhibit -benchtime=1x
//
// prints the reproduction next to its timing. EXPERIMENTS.md pins the same
// numbers (TestExperimentsHeadlines) and records them against the paper's.
package flashwear_bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"flashwear/internal/experiments"
	"flashwear/internal/ftl"
	"flashwear/internal/nand"
	"flashwear/internal/telemetry"
)

func BenchmarkExhibit(b *testing.B) {
	for _, ex := range experiments.Exhibits {
		b.Run(ex.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := ex.Run(ex.Config)
				if err != nil {
					b.Fatal(err)
				}
				for _, h := range res.Headlines {
					b.ReportMetric(h.Value, h.Name)
				}
			}
		})
	}
}

// benchRecord is one paired A/B run of a bench/ workload, committed at the
// root as a point of the workload's trajectory: BENCH_<workload>.json is a
// JSON array of them, appended to and never rewritten. Pair i ran the side
// named First[i] first, then the other, on one host at one seed.
type benchRecord struct {
	Refs        struct{ Parent, Change string }
	Workload    string
	Seed        int64
	Seconds     float64
	Host        string
	First       []string
	RefKernelMs struct{ Parent, Change []float64 } `json:"ref_kernel_ms"`
	Metrics     map[string]benchMetric
}

// benchMetric is one end-to-end metric's values, pair by pair. Ratio
// summarises the per-pair improvement factors (change/parent when higher is
// better, parent/change when lower is), and Wins counts the pairs whose
// factor exceeds 1.
type benchMetric struct {
	Better         string
	Parent, Change []float64
	ParentSummary  benchSummary `json:"parent_summary"`
	ChangeSummary  benchSummary `json:"change_summary"`
	Ratio          benchSummary
	Wins           int
}

type benchSummary struct{ Q1, Median, Q3 float64 }

// TestBenchRecords checks every committed trajectory file: the fields a
// reader needs are present, every per-pair array has one entry per pair,
// and the medians and wins agree with the values they summarise.
func TestBenchRecords(t *testing.T) {
	files, err := filepath.Glob("BENCH_*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no BENCH_*.json at the root (%v)", err)
	}
	for _, name := range files {
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		var recs []benchRecord
		if err := dec.Decode(&recs); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(recs) == 0 {
			t.Fatalf("%s: no records", name)
		}
		for i, r := range recs {
			where := fmt.Sprintf("%s[%d]", name, i)
			if want := strings.TrimSuffix(strings.TrimPrefix(name, "BENCH_"), ".json"); r.Workload != want {
				t.Errorf("%s: workload %q, want %q", where, r.Workload, want)
			}
			if r.Refs.Parent == "" || r.Refs.Change == "" || r.Host == "" || r.Seconds <= 0 || len(r.Metrics) == 0 {
				t.Errorf("%s: refs, host, seconds and metrics are required: %+v", where, r)
			}
			n := len(r.First)
			if n == 0 {
				t.Errorf("%s: no pairs", where)
			}
			for _, side := range r.First {
				if side != "parent" && side != "change" {
					t.Errorf("%s: first %q, want parent or change", where, side)
				}
			}
			if len(r.RefKernelMs.Parent) != n || len(r.RefKernelMs.Change) != n {
				t.Errorf("%s: ref_kernel_ms has %d/%d values for %d pairs", where, len(r.RefKernelMs.Parent), len(r.RefKernelMs.Change), n)
			}
			for m, v := range r.Metrics {
				checkBenchMetric(t, where+" "+m, v, n)
			}
		}
	}
}

func checkBenchMetric(t *testing.T, where string, v benchMetric, pairs int) {
	t.Helper()
	if pairs == 0 || len(v.Parent) != pairs || len(v.Change) != pairs {
		t.Errorf("%s: %d parent and %d change values for %d pairs", where, len(v.Parent), len(v.Change), pairs)
		return
	}
	ratios := make([]float64, pairs)
	wins := 0
	for i := range ratios {
		switch v.Better {
		case "higher":
			ratios[i] = v.Change[i] / v.Parent[i]
		case "lower":
			ratios[i] = v.Parent[i] / v.Change[i]
		default:
			t.Errorf("%s: better %q, want higher or lower", where, v.Better)
			return
		}
		if ratios[i] > 1 {
			wins++
		}
	}
	if v.Wins != wins {
		t.Errorf("%s: wins %d, the values give %d", where, v.Wins, wins)
	}
	for _, s := range []struct {
		name string
		sum  benchSummary
		xs   []float64
	}{{"parent", v.ParentSummary, v.Parent}, {"change", v.ChangeSummary, v.Change}, {"ratio", v.Ratio, ratios}} {
		if med := median(s.xs); math.Abs(s.sum.Median-med) > 1e-9*math.Abs(med) {
			t.Errorf("%s: %s median %g, the values give %g", where, s.name, s.sum.Median, med)
		}
		if !(s.sum.Q1 <= s.sum.Median && s.sum.Median <= s.sum.Q3) {
			t.Errorf("%s: %s quartiles out of order: %+v", where, s.name, s.sum)
		}
	}
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// BenchmarkTelemetryOverhead measures the cost instrumentation adds to the
// FTL's host write path. The bare and instrumented sub-benchmarks run an
// identical write sequence (same seed, same GC/wear-leveling work);
// instrumented attaches a registry first. FTL instruments are pull-based —
// snapshots read the Stats the write path maintains anyway — so
// instrumented ns/op must stay within 5% of bare (it measures at ~0%; an
// atomic push counter here costs ~8%, which is why there isn't one).
func BenchmarkTelemetryOverhead(b *testing.B) {
	newBenchFTL := func(b *testing.B) *ftl.FTL {
		var cfg ftl.Config
		cfg.MainChip = nand.Config{
			Geometry: nand.Geometry{
				Dies: 1, PlanesPerDie: 1, BlocksPerPlane: 64,
				PagesPerBlock: 64, PageSize: 4096,
			},
			Cell: nand.MLC, RatedPE: 50_000_000, Seed: 7,
		}
		f, err := ftl.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		return f
	}
	run := func(instrumented bool) func(b *testing.B) {
		return func(b *testing.B) {
			f := newBenchFTL(b)
			if instrumented {
				f.Attach(telemetry.NewRegistry())
			}
			n := f.LogicalPages()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := f.WritePage(i%n, nil, 4096); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("bare", run(false))
	b.Run("instrumented", run(true))
}
