// Package maporder flags map iteration whose order leaks into output.
//
// Invariant: everything the simulator emits — device state, journal and
// checkpoint writes, CSV ledgers, merged aggregates — must be a pure
// function of the Spec. Go randomizes map iteration order per run, so a
// `range` over a map may not, in its body, write to an io.Writer or a block
// device, build a string, or append to a slice that outlives the loop unless
// that slice is sorted afterwards. This is the exact bug class PR 3 shipped
// in extfs: journal/checkpoint/bitmap blocks were written home in map order,
// so two runs of the same workload produced different on-flash histories and
// the crash/remount suite could not replay. A file system's path from such a
// loop to the device stays inside its package but can be several calls long
// (f2fs: flushDirtyNodes → writeNode → writeMetaBlock → writeBlock →
// WriteAt), so a call to a function of the package under analysis that
// reaches a device write through package-local calls is an emission too. The
// sanctioned idiom is collect-keys / sort / iterate (extfs's sortedKeys),
// which this analyzer recognizes and leaves alone.
package maporder

import (
	"go/ast"
	"go/token"
	"go/types"

	"flashwear/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "maporder",
	Doc: "flag map-range bodies whose iteration order escapes\n\n" +
		"Writing to an io.Writer or a block device, building a string, or\n" +
		"growing an escaping unsorted slice inside `range someMap` makes output\n" +
		"depend on Go's randomized map order (the PR 3 extfs journal bug).",
	Run: run,
}

// ioWriter is a handmade io.Writer interface, so detection does not depend
// on the analyzed package importing io.
var ioWriter = func() *types.Interface {
	params := types.NewTuple(types.NewVar(token.NoPos, nil, "p", types.NewSlice(types.Typ[types.Byte])))
	results := types.NewTuple(
		types.NewVar(token.NoPos, nil, "n", types.Typ[types.Int]),
		types.NewVar(token.NoPos, nil, "err", types.Universe.Lookup("error").Type()),
	)
	sig := types.NewSignatureType(nil, nil, nil, params, results, false)
	iface := types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "Write", sig)}, nil)
	iface.Complete()
	return iface
}()

// devWriter is the write half of blockdev.Device, handmade like ioWriter:
// the interface itself and every device and wrapper in the tree satisfy it.
var devWriter = func() *types.Interface {
	errT := types.Universe.Lookup("error").Type()
	method := func(name string, params ...types.Type) *types.Func {
		vars := make([]*types.Var, len(params))
		for i, t := range params {
			vars[i] = types.NewVar(token.NoPos, nil, "", t)
		}
		sig := types.NewSignatureType(nil, nil, nil, types.NewTuple(vars...),
			types.NewTuple(types.NewVar(token.NoPos, nil, "", errT)), false)
		return types.NewFunc(token.NoPos, nil, name, sig)
	}
	i64 := types.Typ[types.Int64]
	iface := types.NewInterfaceType([]*types.Func{
		method("WriteAt", types.NewSlice(types.Typ[types.Byte]), i64),
		method("WriteAccounted", i64, i64),
		method("Discard", i64, i64),
	}, nil)
	iface.Complete()
	return iface
}()

// checker is one package's run: the pass plus the package's own functions
// that reach a block-device write.
type checker struct {
	*analysis.Pass
	devWrites map[*types.Func]bool
}

func run(pass *analysis.Pass) error {
	c := &checker{Pass: pass, devWrites: deviceWriters(pass)}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if ok && fn.Body != nil {
				checkFunc(c, fn.Body)
			}
		}
	}
	return nil
}

// deviceWriters returns the functions declared in this package that call a
// device's WriteAt, WriteAccounted or Discard, directly or through other
// functions of the package: the closure of the package's static call graph
// over the direct callers. Calls through interfaces and function values
// are not followed, and a function literal's calls count as its enclosing
// declaration's.
func deviceWriters(pass *analysis.Pass) map[*types.Func]bool {
	writes := map[*types.Func]bool{}
	callers := map[*types.Func][]*types.Func{} // callee -> package-local callers
	var work []*types.Func
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			self, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := pass.FuncOf(call)
				switch {
				case callee == nil:
				case isDeviceWrite(callee):
					if !writes[self] {
						writes[self] = true
						work = append(work, self)
					}
				case callee.Pkg() == pass.Pkg:
					callers[callee.Origin()] = append(callers[callee.Origin()], self)
				}
				return true
			})
		}
	}
	for len(work) > 0 {
		fn := work[len(work)-1]
		work = work[:len(work)-1]
		for _, caller := range callers[fn] {
			if !writes[caller] {
				writes[caller] = true
				work = append(work, caller)
			}
		}
	}
	return writes
}

// isDeviceWrite reports whether fn is WriteAt, WriteAccounted or Discard on
// a block device.
func isDeviceWrite(fn *types.Func) bool {
	switch fn.Name() {
	case "WriteAt", "WriteAccounted", "Discard":
	default:
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	return types.Implements(t, devWriter) || types.Implements(types.NewPointer(t), devWriter)
}

// checkFunc inspects one function body for map ranges whose iteration
// order escapes. fnBody is also the scan range for the sorted-afterwards
// exemption.
func checkFunc(pass *checker, fnBody *ast.BlockStmt) {
	ast.Inspect(fnBody, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if tv, ok := pass.TypesInfo.Types[rng.X]; !ok || !isMap(tv.Type) {
			return true
		}
		checkRangeBody(pass, fnBody, rng)
		return true
	})
}

func isMap(t types.Type) bool {
	_, ok := t.Underlying().(*types.Map)
	return ok
}

func checkRangeBody(pass *checker, fnBody *ast.BlockStmt, rng *ast.RangeStmt) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if name := emissionCall(pass, n); name != "" {
				pass.Reportf(n.Pos(), "%s inside range over map: iteration order is randomized, so the output differs run to run — iterate sorted keys instead", name)
			}
		case *ast.AssignStmt:
			checkAssign(pass.Pass, fnBody, rng, n)
		}
		return true
	})
}

// emissionCall reports a non-empty description if the call writes
// order-dependent bytes to a sink: fmt.Fprint*, io.WriteString, a Write*/
// Print* method on an io.Writer implementation, encoding/csv output, or a
// block-device write, made here or inside a function of this package.
func emissionCall(pass *checker, call *ast.CallExpr) string {
	fn := pass.FuncOf(call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	name := fn.Name()
	if pass.devWrites[fn.Origin()] {
		return "call to " + name + ", which writes to a block device,"
	}
	if isDeviceWrite(fn) {
		return "block-device " + name
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return ""
	}
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		writesBytes := types.Implements(t, ioWriter) ||
			types.Implements(types.NewPointer(t), ioWriter) ||
			isCSVWriter(t)
		if writesBytes && (hasPrefix(name, "Write") || hasPrefix(name, "Print")) {
			return "write to " + types.TypeString(t, types.RelativeTo(pass.Pkg)) + "." + name
		}
		return ""
	}
	switch fn.Pkg().Path() {
	case "fmt":
		if hasPrefix(name, "Fprint") {
			return "fmt." + name
		}
	case "io":
		if name == "WriteString" {
			return "io.WriteString"
		}
	}
	return ""
}

func isCSVWriter(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "encoding/csv" && named.Obj().Name() == "Writer"
}

func hasPrefix(s, prefix string) bool {
	return len(s) >= len(prefix) && s[:len(prefix)] == prefix
}

// checkAssign flags two escapes through assignment: growing an outer-scope
// slice via append (unless the slice is sorted after the loop), and
// building a string into an outer-scope variable.
func checkAssign(pass *analysis.Pass, fnBody *ast.BlockStmt, rng *ast.RangeStmt, as *ast.AssignStmt) {
	if as.Tok == token.DEFINE {
		return // a fresh variable cannot outlive the loop body
	}
	for i, lhs := range as.Lhs {
		obj := outerObject(pass, rng, lhs)
		if obj == nil {
			continue
		}
		// String accumulation: s += ... or s = s + ... .
		if basicString(obj.Type()) {
			if as.Tok == token.ADD_ASSIGN || (as.Tok == token.ASSIGN && i < len(as.Rhs) && selfConcat(pass, obj, as.Rhs[i])) {
				pass.Reportf(as.Pos(), "string built across range over map: concatenation order is randomized — collect and sort keys first")
			}
			continue
		}
		// Slice growth: x = append(x, ...).
		if i < len(as.Rhs) && isAppend(pass, as.Rhs[i]) {
			if sortedAfter(pass, fnBody, rng, obj) {
				continue // the collect-then-sort idiom
			}
			pass.Reportf(as.Pos(), "append to %s inside range over map without sorting it afterwards: element order is randomized", obj.Name())
		}
	}
}

// outerObject resolves lhs to a variable declared outside the range
// statement, or nil if it is loop-local (or not a plain variable). Struct
// fields and package variables count as outer.
func outerObject(pass *analysis.Pass, rng *ast.RangeStmt, lhs ast.Expr) types.Object {
	var id *ast.Ident
	switch e := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return nil
	}
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		return nil
	}
	if obj.Pos() >= rng.Pos() && obj.Pos() < rng.End() {
		return nil // declared inside the loop
	}
	return obj
}

func basicString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// selfConcat reports whether rhs is a + chain that mentions obj, i.e. the
// assignment extends the existing string.
func selfConcat(pass *analysis.Pass, obj types.Object, rhs ast.Expr) bool {
	found := false
	ast.Inspect(rhs, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

func isAppend(pass *analysis.Pass, rhs ast.Expr) bool {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// sortedAfter reports whether, later in the same function, the collected
// slice is passed to a sort.* or slices.* function — the second half of
// the collect/sort/iterate idiom.
func sortedAfter(pass *analysis.Pass, fnBody *ast.BlockStmt, rng *ast.RangeStmt, obj types.Object) bool {
	sorted := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if sorted {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		fn := pass.FuncOf(call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if path := fn.Pkg().Path(); path != "sort" && path != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
				sorted = true
			}
		}
		return true
	})
	return sorted
}
