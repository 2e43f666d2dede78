// Package opserrcheck forbids discarding error returns from storage
// mutation operations.
//
// Invariant: zero acknowledged data loss (DESIGN.md §8). The NAND, FTL,
// device, and block-device layers report program/erase/write/recovery
// failures through error returns — a worn page refusing to program, an
// erase that must retire the block, a bricked device going read-only. A
// caller that drops one of those errors converts a detectable failure into
// silent corruption: exactly the acknowledged-data-loss bug class the
// fault-injection suites exist to catch, but found at vet time instead of
// after a six-seed crash run. Test files are exempt (fault windows
// legitimately fire-and-forget); non-test code that really means to drop
// an error must say why via //flashvet:ignore.
package opserrcheck

import (
	"go/ast"
	"go/types"
	"path"
	"regexp"
	"strings"

	"flashwear/internal/analysis"
)

// Packages scopes the check by the import-path base name of the package
// that DECLARES the method; call sites anywhere are checked. These are the
// layers whose errors encode storage-state transitions.
var Packages = "nand,ftl,device,blockdev"

// opName matches the mutation operations whose errors may not be lost.
var opName = regexp.MustCompile(`^(Program|Erase|Write|Recover)`)

var Analyzer = &analysis.Analyzer{
	Name: "opserrcheck",
	Doc: "forbid discarded errors from NAND/FTL/device mutation ops\n\n" +
		"Program/Erase/Write/Recover errors from the storage layers signal\n" +
		"failed or refused mutations; dropping one acknowledges data that\n" +
		"was never durably written.",
	Run: run,
}

func inScope(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || fn.Pkg() == nil || !opName.MatchString(fn.Name()) {
		return false
	}
	// The last result must be an error for there to be one to lose.
	res := sig.Results()
	if res.Len() == 0 || !isErrorType(res.At(res.Len()-1).Type()) {
		return false
	}
	base := path.Base(fn.Pkg().Path())
	for _, want := range strings.Split(Packages, ",") {
		if base == strings.TrimSpace(want) {
			return true
		}
	}
	return false
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

func run(pass *analysis.Pass) error {
	pass.Inspect(func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			report(pass, n.X, "discarded")
		case *ast.DeferStmt:
			report(pass, n.Call, "discarded by defer")
		case *ast.GoStmt:
			report(pass, n.Call, "discarded by go")
		case *ast.AssignStmt:
			checkBlank(pass, n)
		}
		return true
	})
	return nil
}

// report flags e if it is a call to an in-scope op used as a bare
// statement (so every result, the error included, is dropped).
func report(pass *analysis.Pass, e ast.Expr, how string) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return
	}
	fn := pass.FuncOf(call)
	if fn == nil || !inScope(fn) || pass.IsTestFile(call.Pos()) {
		return
	}
	pass.Reportf(call.Pos(), "error from %s.%s %s: a failed storage mutation must be handled, or the loss acknowledged with //flashvet:ignore opserrcheck <why>",
		path.Base(fn.Pkg().Path()), fn.Name(), how)
}

// checkBlank flags `_`-assignments of the error result: res, _ := c.Program(...)
// and _ = dev.Write(...).
func checkBlank(pass *analysis.Pass, as *ast.AssignStmt) {
	if len(as.Rhs) != 1 {
		return
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	fn := pass.FuncOf(call)
	if fn == nil || !inScope(fn) || pass.IsTestFile(call.Pos()) {
		return
	}
	// The error is the last result, so the last LHS receives it.
	last, ok := ast.Unparen(as.Lhs[len(as.Lhs)-1]).(*ast.Ident)
	if !ok || last.Name != "_" {
		return
	}
	pass.Reportf(call.Pos(), "error from %s.%s assigned to _: a failed storage mutation must be handled, or the loss acknowledged with //flashvet:ignore opserrcheck <why>",
		path.Base(fn.Pkg().Path()), fn.Name())
}
