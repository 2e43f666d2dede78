// Package globalrand forbids the process-global math/rand source and
// hard-coded RNG seeds in simulation code.
//
// Invariant: every random draw must come from a *rand.Rand that was seeded
// from the Spec (directly, or derived per-device as in fleet's
// splitmix64 scheme). The package-level rand functions share one global
// source — auto-seeded since Go 1.20 — so any call makes the run
// unrepeatable and couples concurrent devices through a mutex. A source
// constructed from a constant (rand.NewSource(1)) is the quieter cousin:
// repeatable, but it silently correlates every caller that "picked" the
// same literal, instead of deriving from the Spec. Constant seeds are
// allowed in test files, where pinning a fixture is the point.
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

// globalFuncs are the package-level functions drawing from the shared
// source, for both math/rand and math/rand/v2. Constructors (New,
// NewSource, NewZipf, NewPCG, NewChaCha8) are the sanctioned alternative.
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

// seeders are constructors whose all-constant arguments indicate a
// hard-coded seed.
var seeders = map[string]bool{
	"NewSource": true, // math/rand
	"NewPCG":    true, // math/rand/v2
}

var Analyzer = &analysis.Analyzer{
	Name: "globalrand",
	Doc: "forbid global math/rand functions and hard-coded RNG seeds\n\n" +
		"Randomness must flow from an injected *rand.Rand seeded from the\n" +
		"Spec; the global source and literal seeds both break the\n" +
		"run-is-a-pure-function-of-its-Spec contract. Ops-plane packages\n" +
		"(//flashvet:ops-domain) are exempt: backoff jitter is wall-clock\n" +
		"policy, not simulation.",
	Run: run,
}

// isRandPkg reports the two math/rand package paths.
func isRandPkg(pkg *types.Package) bool {
	return pkg != nil && (pkg.Path() == "math/rand" || pkg.Path() == "math/rand/v2")
}

func run(pass *analysis.Pass) error {
	if analysis.OpsDomain(pass, false) {
		return nil
	}
	pass.Inspect(func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			fn, ok := pass.TypesInfo.Uses[n.Sel].(*types.Func)
			if ok && isRandPkg(fn.Pkg()) && globalFuncs[fn.Name()] && fn.Type().(*types.Signature).Recv() == nil {
				pass.Reportf(n.Pos(), "global rand.%s draws from the shared process-wide source: use an injected seeded *rand.Rand", fn.Name())
			}
		case *ast.CallExpr:
			fn := pass.FuncOf(n)
			if fn == nil || !isRandPkg(fn.Pkg()) || !seeders[fn.Name()] || pass.IsTestFile(n.Pos()) {
				return true
			}
			if len(n.Args) == 0 {
				return true
			}
			for _, arg := range n.Args {
				if tv, ok := pass.TypesInfo.Types[arg]; !ok || tv.Value == nil {
					return true // at least one runtime-derived argument
				}
			}
			pass.Reportf(n.Pos(), "hard-coded seed in rand.%s: derive the seed from the Spec so the run stays a pure function of it", fn.Name())
		}
		return true
	})
	return nil
}
