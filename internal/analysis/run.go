package analysis

import (
	"fmt"
	"go/token"
	"sort"
)

// A Finding is one diagnostic after ignore-directive filtering, resolved
// to a concrete position.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
}

// FrameworkName is the pseudo-analyzer findings about the ignore
// directives themselves are attributed to. Those findings are not
// suppressible — a waiver cannot waive itself.
const FrameworkName = "flashvet"

// Run executes analyzers over every package, applies //flashvet:ignore
// directives, and returns the surviving findings sorted by position (so
// output is deterministic, as this suite itself demands of the simulator).
//
// suite is every analyzer a directive may name; analyzers is the subset to
// run, or nil for all of suite. Directives are validated against the suite,
// so running one analyzer never rejects a waiver for another. Only a run of
// the whole suite reports valid directives that suppressed nothing — a
// directive for a skipped analyzer would look unused — so waivers die with
// the code they excused.
func Run(fset *token.FileSet, pkgs []*Package, suite, analyzers []*Analyzer) ([]Finding, error) {
	checkUnusedIgnores := analyzers == nil
	if checkUnusedIgnores {
		analyzers = suite
	}
	known := make(map[string]bool, len(suite))
	for _, a := range suite {
		known[a.Name] = true
	}

	var findings []Finding
	for _, pkg := range pkgs {
		dirs := collectDirectives(fset, pkg.Files, pkg.Sources, known)
		for _, d := range dirs {
			if d.problem != "" {
				findings = append(findings, Finding{
					Analyzer: FrameworkName,
					Pos:      fset.Position(d.pos),
					Message:  d.problem,
				})
			}
		}
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
			}
			var diags []Diagnostic
			pass.report = func(d Diagnostic) { diags = append(diags, d) }
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %v", a.Name, pkg.ImportPath, err)
			}
		diag:
			for _, d := range diags {
				pos := fset.Position(d.Pos)
				for _, dir := range dirs {
					if dir.matches(a.Name, pos.Filename, pos.Line) {
						continue diag
					}
				}
				findings = append(findings, Finding{Analyzer: a.Name, Pos: pos, Message: d.Message})
			}
		}
		if checkUnusedIgnores {
			for _, d := range dirs {
				if d.problem == "" && len(d.used) == 0 {
					findings = append(findings, Finding{
						Analyzer: FrameworkName,
						Pos:      fset.Position(d.pos),
						Message: fmt.Sprintf("unused %s directive: nothing on its line to suppress — delete it",
							ignorePrefix),
					})
				}
			}
		}
	}

	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return findings, nil
}
