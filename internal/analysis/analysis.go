// Package analysis is a self-contained static-analysis framework for the
// flashwear tree, mirroring the shape of golang.org/x/tools/go/analysis
// (Analyzer / Pass / Diagnostic) but built on the standard library alone:
// packages are enumerated with `go list -export`, dependencies are imported
// from compiler export data, and only the packages matching the pattern are
// type-checked from source. The x/tools module is deliberately not a
// dependency — the simulator builds offline with a bare toolchain, and its
// vet suite must too.
//
// The analyzers themselves live under internal/analysis/passes; the suite
// is assembled in internal/analysis/flashvet and exposed as the
// cmd/flashvet binary (`flashvet ./...`). See DESIGN.md §10 for the
// invariants each analyzer guards.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer describes one invariant check: a per-package syntax+types
// pass that sees one package at a time.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //flashvet:ignore directives. Lower-case, no spaces.
	Name string
	// Doc is a one-paragraph description: first line is a summary, the
	// rest states the invariant the analyzer guards.
	Doc string
	// Run reports diagnostics for one package via pass.Reportf.
	Run func(*Pass) error
}

// A Pass provides one analyzer with one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
}

// A Diagnostic is one finding, positioned at the offending token.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf records a finding.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// IsTestFile reports whether the file holding pos is a _test.go file.
// Analyzers whose invariant only binds shipped simulation code (wallclock,
// opserrcheck, globalrand's seed-literal check) use this to stand down in
// tests, where fixed seeds and deliberately-dropped errors are idiomatic.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// Inspect walks every file in the pass in depth-first order, calling fn for
// each node; fn returning false prunes the subtree.
func (p *Pass) Inspect(fn func(ast.Node) bool) {
	for _, f := range p.Files {
		ast.Inspect(f, fn)
	}
}

// FuncOf resolves a call expression to the package-level function or
// method it invokes, or nil for builtins, conversions, and indirect calls
// through function values (whose provenance a per-package pass cannot
// know).
func (p *Pass) FuncOf(call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := p.TypesInfo.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := p.TypesInfo.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}
