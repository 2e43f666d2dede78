// Package locksafe reports blocking under a held mutex, which deadlocks
// or stalls the fleetd serving plane (a mutexed registry serving HTTP
// handlers, SSE watchers on channels, and a self-healing supervisor
// loop).
//
// Between a Lock/RLock and its release, code must not park the goroutine
// on something another goroutine — possibly one that needs this very
// lock — has to complete: channel sends and receives, select (unless it
// has a default and so cannot block), sync.WaitGroup.Wait, time.Sleep,
// and network or subprocess calls (net, net/http, os/exec). An SSE
// watcher blocked on a slow client while holding the registry lock stalls
// every campaign heartbeat; the journal's mutexed fsync is NOT flagged —
// plain file IO is bounded and deliberate there (DESIGN.md §12).
//
// Copied locks (value receivers, by-value parameters, assignments) are
// stock `go vet`'s copylocks check, which `make vet` runs; this package
// does not duplicate it.
//
// sync.Cond.Wait is exempt: it is specified to be called with the lock
// held (it unlocks while parked). Function literals are analyzed as
// separate bodies with no held locks: a goroutine launched under a lock
// does not itself hold it.
//
// The analysis is intraprocedural and syntactic about lock identity (the
// receiver expression's printed path, e.g. "s.mu"): it catches the
// lock-step bugs code review keeps missing, not every aliasing trick.
package locksafe

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"flashwear/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "locksafe",
	Doc: "report blocking calls under a held mutex\n\n" +
		"Channel operations, select, WaitGroup.Wait, time.Sleep and\n" +
		"net/subprocess calls between Lock and Unlock park the goroutine\n" +
		"while others spin on the same lock.",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if pass.IsTestFile(fd.Pos()) {
				continue
			}
			if fd.Body != nil {
				w := &walker{pass: pass, held: make(map[string]token.Pos)}
				w.block(fd.Body)
			}
		}
	}
	return nil
}

// walker tracks the set of held locks (keyed by the printed receiver
// path) through one function body, statement by statement.
type walker struct {
	pass *analysis.Pass
	held map[string]token.Pos // lock path -> Lock() position
}

func (w *walker) holding() string {
	var names []string
	for name := range w.held {
		names = append(names, name)
	}
	if len(names) == 0 {
		return ""
	}
	sort.Strings(names) // deterministic order for multi-lock messages
	return strings.Join(names, ", ")
}

func (w *walker) reportBlocked(pos token.Pos, what string) {
	if locks := w.holding(); locks != "" {
		w.pass.Reportf(pos, "%s while holding %s: the goroutine parks with the lock held, stalling every contender — release first or restructure", what, locks)
	}
}

func (w *walker) block(b *ast.BlockStmt) {
	if b == nil {
		return
	}
	for _, s := range b.List {
		w.stmt(s)
	}
}

// fork runs f against a copy of the held set, so branch-local
// Lock/Unlock pairs don't leak into the fall-through state.
func (w *walker) fork(f func(inner *walker)) {
	inner := &walker{pass: w.pass, held: make(map[string]token.Pos, len(w.held))}
	for k, v := range w.held {
		inner.held[k] = v
	}
	f(inner)
}

func (w *walker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		w.block(s)
	case *ast.ExprStmt:
		w.expr(s.X)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.expr(e)
		}
		for _, e := range s.Lhs {
			w.expr(e)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v)
					}
				}
			}
		}
	case *ast.IfStmt:
		w.stmt2(s.Init)
		w.expr(s.Cond)
		w.fork(func(inner *walker) { inner.block(s.Body) })
		if s.Else != nil {
			w.fork(func(inner *walker) { inner.stmt(s.Else) })
		}
	case *ast.ForStmt:
		w.stmt2(s.Init)
		if s.Cond != nil {
			w.expr(s.Cond)
		}
		w.fork(func(inner *walker) {
			inner.block(s.Body)
			inner.stmt2(s.Post)
		})
	case *ast.RangeStmt:
		// Ranging over a channel blocks on every iteration.
		if tv, ok := w.pass.TypesInfo.Types[s.X]; ok {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				w.reportBlocked(s.Pos(), "range over channel")
			}
		}
		w.expr(s.X)
		w.fork(func(inner *walker) { inner.block(s.Body) })
	case *ast.SwitchStmt:
		w.stmt2(s.Init)
		if s.Tag != nil {
			w.expr(s.Tag)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.fork(func(inner *walker) {
					for _, e := range cc.List {
						inner.expr(e)
					}
					for _, st := range cc.Body {
						inner.stmt(st)
					}
				})
			}
		}
	case *ast.TypeSwitchStmt:
		w.stmt2(s.Init)
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.fork(func(inner *walker) {
					for _, st := range cc.Body {
						inner.stmt(st)
					}
				})
			}
		}
	case *ast.SelectStmt:
		hasDefault := false
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			w.reportBlocked(s.Pos(), "select with no default")
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				w.fork(func(inner *walker) {
					for _, st := range cc.Body {
						inner.stmt(st)
					}
				})
			}
		}
	case *ast.SendStmt:
		w.reportBlocked(s.Arrow, "channel send")
		w.expr(s.Chan)
		w.expr(s.Value)
	case *ast.GoStmt:
		// The launched goroutine does not hold the caller's locks; its
		// body is a FuncLit handled by expr with a fresh walker.
		w.expr(s.Call.Fun)
		for _, a := range s.Call.Args {
			w.expr(a)
		}
	case *ast.DeferStmt:
		// defer mu.Unlock() is the idiomatic release-at-return, which
		// means the lock stays held for the REST of the body — exactly
		// the window this check exists for. Recognize the deferred
		// unlock so it doesn't clear the held set, and analyze nothing
		// else about it.
		if _, _, isLock := lockSelector(w.pass, s.Call); isLock {
			break
		}
		w.expr(s.Call.Fun)
		for _, a := range s.Call.Args {
			w.expr(a)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.expr(e)
		}
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	}
}

// stmt2 is stmt for optional simple statements (inits, posts).
func (w *walker) stmt2(s ast.Stmt) {
	if s != nil {
		w.stmt(s)
	}
}

func (w *walker) expr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A separate body with no inherited locks.
			inner := &walker{pass: w.pass, held: make(map[string]token.Pos)}
			inner.block(n.Body)
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				w.reportBlocked(n.Pos(), "channel receive")
			}
		case *ast.CallExpr:
			if w.lockOp(n) {
				return false
			}
			w.checkBlockingCall(n)
		}
		return true
	})
}

// lockSelector recognizes a mu.Lock/RLock/Unlock/RUnlock/TryLock call on
// a sync.Mutex or sync.RWMutex, returning the lock's path and the method
// name.
func lockSelector(pass *analysis.Pass, call *ast.CallExpr) (path, method string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	fn, isFn := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	if recvNamed(fn) != "Mutex" && recvNamed(fn) != "RWMutex" {
		return "", "", false
	}
	switch fn.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock", "TryLock", "TryRLock":
	default:
		return "", "", false
	}
	path = exprPath(sel.X)
	if path == "" {
		path = "<lock>"
	}
	return path, fn.Name(), true
}

// lockOp updates the held set for mu.Lock/RLock/Unlock/RUnlock calls and
// reports double-Lock on the same path. Returns true when the call was a
// lock operation (handled), false otherwise.
func (w *walker) lockOp(call *ast.CallExpr) bool {
	path, method, ok := lockSelector(w.pass, call)
	if !ok {
		return false
	}
	switch method {
	case "Lock", "RLock":
		if prev, dup := w.held[path]; dup {
			prevPos := w.pass.Fset.Position(prev)
			w.pass.Reportf(call.Pos(), "%s.%s with %s already held (since line %d): self-deadlock", path, method, path, prevPos.Line)
		}
		w.held[path] = call.Pos()
	case "Unlock", "RUnlock":
		delete(w.held, path)
	case "TryLock", "TryRLock":
		// Cannot block and may not acquire; recognized but not modeled.
	}
	return true
}

// blockingPkgs are packages whose calls wait on the outside world.
var blockingPkgs = map[string]string{
	"net":      "network call",
	"net/http": "HTTP call",
	"os/exec":  "subprocess call",
}

func (w *walker) checkBlockingCall(call *ast.CallExpr) {
	var fn *types.Func
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ = w.pass.TypesInfo.Uses[f].(*types.Func)
	case *ast.SelectorExpr:
		fn, _ = w.pass.TypesInfo.Uses[f.Sel].(*types.Func)
	}
	if fn == nil || fn.Pkg() == nil {
		return
	}
	pkg := fn.Pkg().Path()
	name := fn.Name()
	switch {
	case pkg == "time" && name == "Sleep":
		w.reportBlocked(call.Pos(), "time.Sleep")
	case pkg == "sync" && name == "Wait" && recvNamed(fn) == "WaitGroup":
		w.reportBlocked(call.Pos(), "sync.WaitGroup.Wait")
	default:
		if what, ok := blockingPkgs[pkg]; ok {
			w.reportBlocked(call.Pos(), fmt.Sprintf("%s (%s.%s)", what, fn.Pkg().Name(), name))
		}
	}
}

func recvNamed(fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return ""
	}
	rt := recv.Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	if named, ok := rt.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// exprPath renders a lock's receiver chain ("s.mu", "reg.cells.mu") for
// identity and messages; "" for anything fancier than idents/selectors.
func exprPath(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := exprPath(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	case *ast.StarExpr:
		return exprPath(e.X)
	}
	return ""
}
