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
