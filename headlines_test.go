package flashwear_bench

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// exhibitBenchmarks names, per exhibit, the benchmarks whose reported
// metrics are its headline numbers and the config they run at.
var exhibitBenchmarks = []struct {
	name, config string
	fns          []func(*testing.B)
}{
	{"fig1", "scale 2048", []func(*testing.B){BenchmarkFigure1Sequential, BenchmarkFigure1Random}},
	{"fig2", "scale 2048, maxlevel 4", []func(*testing.B){BenchmarkFigure2WearPerIncrement}},
	{"fig3", "scale 2048, maxlevel 3", []func(*testing.B){BenchmarkFigure3TimePerIncrement}},
	{"fig4", "scale 2048, maxlevel 3", []func(*testing.B){BenchmarkFigure4FilesystemWear}},
	{"table1", "scale 2048, maxlevel 10", []func(*testing.B){BenchmarkTable1HybridWear}},
	{"envelope", "scale 2048, maxlevel 3", []func(*testing.B){BenchmarkEnvelopeVsMeasured}},
	{"budget", "scale 2048", []func(*testing.B){BenchmarkBudgetPhoneBricking}},
	{"detection", "scale 4096", []func(*testing.B){BenchmarkDetectionEvasion}},
	{"mitigation", "scale 4096", []func(*testing.B){BenchmarkMitigationPolicies}},
	{"classifier", "scale 2048", []func(*testing.B){BenchmarkClassifierEval}},
	{"baseline", "scale 2048", []func(*testing.B){BenchmarkBenignBaseline}},
	{"tlc", "scale 2048, maxlevel 3", []func(*testing.B){BenchmarkTechnologyTrend}},
	{"healing", "scale 2048", []func(*testing.B){BenchmarkExtensionHealing}},
	{"ablation-gc", "scale 2048", []func(*testing.B){BenchmarkAblationGCPolicy}},
	{"ablation-wearlevel", "scale 2048", []func(*testing.B){BenchmarkAblationWearLeveling}},
	{"ablation-op", "scale 2048", []func(*testing.B){BenchmarkAblationOverProvisioning}},
	{"ablation-merge", "scale 2048", []func(*testing.B){BenchmarkAblationPoolMerge}},
	{"ablation-slc", "scale 2048", []func(*testing.B){BenchmarkAblationSLCCache}},
	{"ablation-ecc", "scale 2048", []func(*testing.B){BenchmarkAblationECCStrength}},
}

const (
	headlinesBegin = "<!-- headlines:begin -->"
	headlinesEnd   = "<!-- headlines:end -->"
)

// sig4 formats v with four significant digits and no exponent.
func sig4(v float64) string {
	r, _ := strconv.ParseFloat(strconv.FormatFloat(v, 'e', 3, 64), 64)
	return strconv.FormatFloat(r, 'f', -1, 64)
}

// TestExperimentsHeadlines regenerates EXPERIMENTS.md's headline block —
// every exhibit's headline metrics at its stated config — and requires the
// committed block to match byte for byte. The simulator is deterministic,
// so a mismatch is a behaviour change or a stale doc; the failure message
// carries the regenerated block, ready to paste.
func TestExperimentsHeadlines(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates every exhibit (~45 s)")
	}
	old := flag.Lookup("test.benchtime").Value.String()
	if err := flag.Set("test.benchtime", "1x"); err != nil {
		t.Fatal(err)
	}
	defer flag.Set("test.benchtime", old)

	var sb strings.Builder
	sb.WriteString(headlinesBegin + "\n| exhibit | metric | value |\n|---|---|---|\n")
	for _, ex := range exhibitBenchmarks {
		metrics := map[string]float64{}
		for _, fn := range ex.fns {
			res := testing.Benchmark(fn)
			if len(res.Extra) == 0 {
				t.Fatalf("%s: benchmark failed or reported no metric", ex.name)
			}
			for name, v := range res.Extra {
				metrics[name] = v
			}
		}
		names := make([]string, 0, len(metrics))
		for name := range metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(&sb, "| %s (%s) | %s | %s |\n", ex.name, ex.config, name, sig4(metrics[name]))
		}
	}
	sb.WriteString(headlinesEnd)
	got := sb.String()

	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	var committed string
	if i := strings.Index(string(doc), headlinesBegin); i >= 0 {
		if j := strings.Index(string(doc), headlinesEnd); j > i {
			committed = string(doc[i : j+len(headlinesEnd)])
		}
	}
	if committed != got {
		t.Fatalf("EXPERIMENTS.md's headline block is stale; replace it with:\n%s", got)
	}
}
