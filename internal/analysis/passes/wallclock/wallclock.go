// Package wallclock forbids wall-clock time and other host state in
// simulation code.
//
// Invariant: a simulation run is a pure function of its Spec (DESIGN.md
// §6). Every timestamp must come from the injected simclock.Clock;
// time.Now and friends smuggle in host state, making runs unrepeatable and
// crash/remount suites unreplayable. Durations and time.Duration
// arithmetic remain fine — only sources of real time (and real delays) are
// banned. The same ban covers the other host state a run could read: the
// process environment and identity (os.Getenv, os.Hostname, os.Getwd, …)
// and host-filesystem metadata (os.Stat, os.ReadDir, hostio.FS's ReadDir
// and Stat, fs.FileInfo.ModTime). The simulated file systems' ReadDir and
// Stat are simulation state and stay legal. Test files are exempt:
// harness timeouts and benchmarks legitimately watch the host clock.
//
// Ops-plane packages — code that measures the real process rather than
// the simulated one (DESIGN.md §12) — opt out with a package-level
// declaration:
//
//	//flashvet:ops-domain <reason>
//
// A package carrying one well-formed declaration may use the host clock
// and host state freely; the reason is mandatory, exactly as for
// //flashvet:ignore. The declaration is deliberately coarse (whole
// package, not one line): a package is either in the sim domain or out of
// it, and a package that is out must say what it is instead.
//
// To stop sim code laundering host time through the ops plane, the
// analyzer also bans the ops plane's exported raw clock readbacks —
// obs.WallNow, and runtrace's Totals accessor (which returns measured
// wall-clock durations) — outside ops-domain packages, with the
// same severity as time.Now itself. Emitting spans (runtrace.Begin/End)
// stays legal everywhere: a span records where time went without letting
// the caller read it back. Values read back out of the ops plane in other
// ways (a journal entry's WallMs, a histogram's Sum) are not call sites
// this ban can see; DESIGN.md §10 records that gap.
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

// opsSources are clock sources exported by ops-plane packages: calling
// one from a non-ops-domain package smuggles wall-clock time into
// simulation code just as surely as time.Now does.
var opsSources = map[string]map[string]bool{
	"flashwear/internal/obs":      {"WallNow": true},
	"flashwear/internal/runtrace": {"Totals": true},
}

// osState lists the os functions that read the process environment or
// identity, or host-filesystem metadata.
var osState = map[string]bool{
	"Getenv": true, "LookupEnv": true, "Environ": true, "ExpandEnv": true,
	"Hostname": true, "Getpid": true, "Getppid": true, "Getuid": true,
	"Getwd": true, "UserHomeDir": true, "UserCacheDir": true,
	"UserConfigDir": true, "TempDir": true,
	"Stat": true, "Lstat": true, "ReadDir": true,
}

// hostState names the host-state read fn performs — the environment, or
// host-filesystem metadata — or returns "" for none. File contents read
// through hostio are not host state: checkpoint payloads are CRC-checked
// bytes the deterministic writer produced.
func hostState(fn *types.Func) string {
	method := fn.Type().(*types.Signature).Recv() != nil
	name := fn.Name()
	switch fn.Pkg().Path() {
	case "os":
		if !method && osState[name] {
			return "os." + name
		}
	case "io/fs":
		if method && name == "ModTime" {
			return "fs.FileInfo.ModTime"
		}
	case "flashwear/internal/hostio":
		if method && (name == "ReadDir" || name == "Stat") {
			return "hostio." + name
		}
	}
	return ""
}

var Analyzer = &analysis.Analyzer{
	Name: "wallclock",
	Doc: "forbid wall-clock time and host state in simulation code\n\n" +
		"Simulated time comes from the injected simclock.Clock; time.Now,\n" +
		"time.Since, time.Sleep and the timer constructors read host state\n" +
		"and break bit-exact replay, as do the process environment and\n" +
		"host-filesystem metadata. Ops-plane packages opt out with a\n" +
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
		case opsSources[fn.Pkg().Path()][fn.Name()]:
			pass.Reportf(sel.Pos(), "ops-plane clock source %s.%s in simulation code: only //flashvet:ops-domain packages may read host time", fn.Pkg().Name(), fn.Name())
		default:
			if src := hostState(fn); src != "" {
				pass.Reportf(sel.Pos(), "host state %s in simulation code: a run must be a pure function of its Spec; only //flashvet:ops-domain packages may read it", src)
			}
		}
		return true
	})
	return nil
}
