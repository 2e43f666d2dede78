// Package globalrand keeps every simulation stream on simrand and off
// hard-coded seeds.
//
// Invariant: every random draw must come from a *simrand.Rand that was
// seeded from the Spec (directly, or derived per-device as in fleet's
// splitmix64 scheme). simrand is the one source: a reference to
// math/rand or math/rand/v2 anywhere else in simulation code is a
// finding, so a change of generator stays a one-package edit and no
// stream escapes the fingerprints' exactness argument (DESIGN.md §6).
// The package-level rand functions get a sharper message: they share one
// global source — auto-seeded since Go 1.20 — so any call makes the run
// unrepeatable and couples concurrent devices through a mutex. A stream
// constructed from a constant (simrand.New(1)) is the quieter cousin:
// repeatable, but it silently correlates every caller that "picked" the
// same literal, instead of deriving from the Spec. Test files are not
// analysed; pinning a fixture's seed is their point.
//
// Ops-plane packages — declared with //flashvet:ops-domain <reason>,
// exactly as for the wallclock analyzer — are exempt: retry-backoff
// jitter and its kin are wall-clock policy whose entropy never flows
// into simulation results, and the shared global source is precisely the
// right one for spreading a fleet's retries apart. Malformed
// declarations grant nothing (wallclock reports them, once for the whole
// suite).
package globalrand

import (
	"go/ast"
	"go/types"

	"flashwear/internal/analysis"
)

// simrandPath is the one package allowed to import math/rand outside the
// ops plane.
const simrandPath = "flashwear/internal/simrand"

// globalFuncs are the package-level functions drawing from the shared
// source, for both math/rand and math/rand/v2.
var globalFuncs = map[string]bool{
	// math/rand
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true,
	"NormFloat64": true, "Perm": true, "Shuffle": true, "Read": true,
	"Seed": true,
	// math/rand/v2 additions (shared names above cover the rest)
	"IntN": true, "Int32": true, "Int32N": true, "Int64": true,
	"Int64N": true, "Uint": true, "UintN": true, "Uint32N": true,
	"Uint64N": true, "N": true,
}

var Analyzer = &analysis.Analyzer{
	Name: "globalrand",
	Doc: "keep simulation randomness on simrand, seeded from the Spec\n\n" +
		"Randomness must flow from a *simrand.Rand seeded from the Spec;\n" +
		"math/rand outside simrand, the global source and literal seeds\n" +
		"all break the run-is-a-pure-function-of-its-Spec contract or its\n" +
		"exactness argument. Ops-plane packages\n" +
		"(//flashvet:ops-domain) are exempt: backoff jitter is wall-clock\n" +
		"policy, not simulation.",
	Run: run,
}

// isRandPkg reports the two math/rand package paths.
func isRandPkg(pkg *types.Package) bool {
	return pkg != nil && (pkg.Path() == "math/rand" || pkg.Path() == "math/rand/v2")
}

func run(pass *analysis.Pass) error {
	if analysis.OpsDomain(pass, false) || pass.Pkg.Path() == simrandPath {
		return nil
	}
	pass.Inspect(func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			obj := pass.TypesInfo.Uses[n.Sel]
			if obj == nil || !isRandPkg(obj.Pkg()) {
				return true
			}
			if fn, ok := obj.(*types.Func); ok && globalFuncs[fn.Name()] && fn.Type().(*types.Signature).Recv() == nil {
				pass.Reportf(n.Pos(), "global rand.%s draws from the shared process-wide source: use a simrand.Rand seeded from the Spec", fn.Name())
			} else {
				pass.Reportf(n.Pos(), "rand.%s outside simrand: simulation streams come from simrand.New(seed)", obj.Name())
			}
		case *ast.CallExpr:
			fn := pass.FuncOf(n)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != simrandPath || fn.Name() != "New" || pass.IsTestFile(n.Pos()) {
				return true
			}
			for _, arg := range n.Args {
				if tv, ok := pass.TypesInfo.Types[arg]; !ok || tv.Value == nil {
					return true // a runtime-derived seed
				}
			}
			pass.Reportf(n.Pos(), "hard-coded seed in simrand.New: derive the seed from the Spec so the run stays a pure function of it")
		}
		return true
	})
	return nil
}
