// Package flashvet assembles the flashwear analyzer suite and implements
// the cmd/flashvet entry point: `flashvet ./...` enumerates, type-checks
// and analyzes packages in the current module (what `make lint` runs);
// `flashvet -waivers ./...` lists every waiver instead.
package flashvet

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"flashwear/internal/analysis"
	"flashwear/internal/analysis/passes/floataccum"
	"flashwear/internal/analysis/passes/globalrand"
	"flashwear/internal/analysis/passes/locksafe"
	"flashwear/internal/analysis/passes/maporder"
	"flashwear/internal/analysis/passes/opserrcheck"
	"flashwear/internal/analysis/passes/wallclock"
)

// All returns the full suite: the five determinism and safety invariants
// DESIGN.md §10 documents and the fleetd lock-discipline check.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		wallclock.Analyzer,
		globalrand.Analyzer,
		maporder.Analyzer,
		floataccum.Analyzer,
		opserrcheck.Analyzer,
		locksafe.Analyzer,
	}
}

// Main implements cmd/flashvet; it returns the process exit code:
// 0 clean, 1 usage or internal failure, 2 findings.
func Main(args []string) int {
	suite := All()

	fs := flag.NewFlagSet("flashvet", flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: flashvet [-analyzer...] [package pattern ...]\n\nanalyzers:\n")
		for _, a := range suite {
			fmt.Fprintf(fs.Output(), "  -%s\t%s\n", a.Name, strings.SplitN(a.Doc, "\n", 2)[0])
		}
	}
	waivers := fs.Bool("waivers", false, "audit mode: list every ignore directive and ops-domain declaration, sorted, and exit")
	enabled := make(map[string]*bool, len(suite))
	for _, a := range suite {
		enabled[a.Name] = fs.Bool(a.Name, false, strings.SplitN(a.Doc, "\n", 2)[0])
	}
	if err := fs.Parse(args); err != nil {
		return 1
	}

	// Naming any analyzer runs just those; naming none (run stays nil)
	// runs the whole suite, go vet's convention.
	var run []*analysis.Analyzer
	for _, a := range suite {
		if *enabled[a.Name] {
			run = append(run, a)
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	if *waivers {
		return auditWaivers(patterns)
	}
	pkgs, fset, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	findings, err := analysis.Run(fset, pkgs, suite, run)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	for _, f := range findings {
		fmt.Fprintln(os.Stderr, f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "flashvet: %d finding(s)\n", len(findings))
		return 2
	}
	return 0
}

// auditWaivers implements -waivers: a stable, diffable listing of every
// place the suite is told to look away — one line per //flashvet:ignore
// and //flashvet:ops-domain, with file:line and the mandatory reason.
// CI diffs this output against the committed lint_waivers.txt baseline,
// so adding a waiver means changing a reviewed file, not just typing a
// comment. Paths print relative to the working directory so the
// baseline is position-independent.
func auditWaivers(patterns []string) int {
	pkgs, fset, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	//flashvet:ignore wallclock the linter relativises its own output paths; no simulation runs here
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	for _, w := range analysis.Waivers(fset, pkgs) {
		if rel, err := filepath.Rel(cwd, w.File); err == nil && !strings.HasPrefix(rel, "..") {
			w.File = filepath.ToSlash(rel)
		}
		fmt.Println(w)
	}
	return 0
}
