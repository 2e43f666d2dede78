// Package wallclock forbids wall-clock time in simulation code.
//
// Invariant: a simulation run is a pure function of its Spec (DESIGN.md
// §6). Every timestamp must come from the injected simclock.Clock;
// time.Now and friends smuggle in host state, making runs unrepeatable and
// crash/remount suites unreplayable. Durations and time.Duration
// arithmetic remain fine — only sources of real time (and real delays) are
// banned. Test files are exempt: harness timeouts and benchmarks
// legitimately watch the host clock.
//
// Ops-plane packages — code that measures the real process rather than
// the simulated one (DESIGN.md §12) — opt out with a package-level
// declaration:
//
//	//flashvet:ops-domain <reason>
//
// A package carrying one well-formed declaration may use the host clock
// freely; the reason is mandatory, exactly as for //flashvet:ignore. The
// declaration is deliberately coarse (whole package, not one line): a
// package is either in the sim domain or out of it, and a package that is
// out must say what it is instead.
//
// To stop sim code laundering host time through the ops plane, the
// analyzer also bans the ops plane's exported raw clock readbacks —
// obs.WallNow, and runtrace's Totals accessor (which returns measured
// wall-clock durations) — outside ops-domain packages, with the
// same severity as time.Now itself. Emitting spans (runtrace.Begin/End)
// stays legal everywhere: a span records where time went without letting
// the caller read it back.
package wallclock

import (
	"go/ast"
	"go/types"

	"flashwear/internal/analysis"
)

// banned lists the package-level time functions that read or wait on the
// host clock. Constructors like time.Date are allowed: they compute a
// value from explicit arguments.
var banned = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"Tick":      true,
	"After":     true,
	"AfterFunc": true,
	"NewTimer":  true,
	"NewTicker": true,
}

// OpsSources are clock sources exported by ops-plane packages: calling
// one from a non-ops-domain package smuggles wall-clock time into
// simulation code just as surely as time.Now does. Exported because
// simtaint seeds its wallclock taint from exactly this set — the
// syntactic ban here catches direct calls, and the taint analysis
// catches the value flowing onward through returns, fields, and
// channels; the two must agree on what a source is.
var OpsSources = map[string]map[string]bool{
	"flashwear/internal/obs":      {"WallNow": true},
	"flashwear/internal/runtrace": {"Totals": true},
}

var Analyzer = &analysis.Analyzer{
	Name: "wallclock",
	Doc: "forbid wall-clock time in simulation code\n\n" +
		"Simulated time comes from the injected simclock.Clock; time.Now,\n" +
		"time.Since, time.Sleep and the timer constructors read host state\n" +
		"and break bit-exact replay. Ops-plane packages opt out with a\n" +
		"//flashvet:ops-domain <reason> declaration.",
	Run: run,
}

func run(pass *analysis.Pass) error {
	// wallclock is the suite's designated reporter of malformed
	// declarations (analysis.OpsDomain doc); globalrand consults the same
	// declarations silently.
	exempt := analysis.OpsDomain(pass, true)
	pass.Inspect(func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		if exempt || pass.IsTestFile(sel.Pos()) {
			return true
		}
		switch {
		case fn.Pkg().Path() == "time" && banned[fn.Name()]:
			pass.Reportf(sel.Pos(), "wall-clock time.%s in simulation code: use the injected simclock.Clock", fn.Name())
		case OpsSources[fn.Pkg().Path()][fn.Name()]:
			pass.Reportf(sel.Pos(), "ops-plane clock source %s.%s in simulation code: only //flashvet:ops-domain packages may read host time", fn.Pkg().Name(), fn.Name())
		}
		return true
	})
	return nil
}
