// Package simtaint is a cross-package determinism taint analysis.
//
// Invariant: a simulation run is a pure function of its Spec. The
// syntactic analyzers (wallclock, globalrand, maporder) ban *calling* a
// nondeterminism source in sim-domain code, but a value produced legally
// in an ops-domain package can still *flow* — through returns, struct
// fields, closures, channels, and cross-package calls — into sim-persistent
// state: snapshot codec fields, fleet aggregate merges, alert payloads,
// fingerprint inputs. The PR 7 obs.WallNow laundering ban was a
// hand-written special case of this; simtaint is the general rule.
//
// The analysis computes one summary per function — which results carry
// taint, which parameters flow into which results, which parameters reach
// a sim-persistent sink — by walking the function body to a fixpoint. The
// summaries are exported as facts (internal/analysis facts layer), so a
// downstream package sees its callees' behavior without re-analysis: when
// package sim calls ops.Stamp() and ops.Stamp's summary says "result 0 is
// wallclock-tainted", the value is tainted in sim no matter how many
// assignments, fields, or channels it crosses before reaching a sink.
//
// Taint kinds and their sources:
//
//   - wallclock: time.Now/Since/Until/After/Tick, plus the ops-plane
//     readbacks wallclock bans (obs.WallNow, runtrace.Totals)
//   - rand: the global math/rand and math/rand/v2 draw functions
//     (globalrand.GlobalFuncs — the two analyzers share one table)
//   - hostenv: os.Getenv and friends — process environment, pid, host name
//   - hostio: host-filesystem *metadata* (hostio.FS ReadDir/Stat,
//     os.Stat/ReadDir, fs.FileInfo.ModTime). File *contents* read through
//     hostio are deliberately not sources: checkpoint payloads are
//     CRC-verified bytes the deterministic writer produced, and tainting
//     them would flag every legitimate resume path.
//   - maporder: a slice grown inside `range someMap` and not sorted in the
//     same function — the escape maporder cannot see once the slice leaves
//     the function.
//
// Sinks are declared, not guessed: a function whose doc comment carries
//
//	//flashvet:sim-sink <what sim-persistent state this writes>
//
// treats every parameter as sim-persistent state, and the sink property
// propagates transitively through summaries (a function that forwards its
// parameter to a sink is itself a sink in that parameter). A tainted value
// reaching a sink parameter is a finding at the call site.
//
// //flashvet:ops-domain packages are exempt from *reporting* — they are
// allowed to traffic in host state — but their summaries are still
// computed and exported, which is the whole point: the waiver's claim
// ("nothing we produce flows back into simulation results") stops being
// trusted and starts being checked in every package that consumes them.
//
// The ops-domain declaration also orients the boundary. Four flows are
// sanctioned and carry no taint:
//
//   - writes INTO ops-plane state, whether through a call (journaling an
//     event) or a direct field store (configuring a journal's Logger) —
//     host data belongs there, and anything read back out is re-tainted
//     by the accessor's summary;
//   - an ops-domain function's writes through the caller's pointers (a
//     journal persisting wall-stamped events through the caller's fs
//     handle) — ops-plane effects by declaration;
//   - holding an opaque handle whose named type lives in an ops-domain
//     package (*obs.Journal, *runtrace.Span);
//   - error values: an error is a diagnostic about a host operation, not
//     simulation data, so err propagation does not spread its producer's
//     taint.
package simtaint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"flashwear/internal/analysis"
	"flashwear/internal/analysis/passes/globalrand"
	"flashwear/internal/analysis/passes/wallclock"
)

// SinkPrefix declares a root sink on the function whose doc comment
// carries it; the description is mandatory, like every flashvet waiver.
const SinkPrefix = "flashvet:sim-sink"

// Kind enumerates the taint classes. Values are serialized (by position)
// in facts; append only.
type Kind int

const (
	KindWallclock Kind = iota
	KindRand
	KindHostenv
	KindHostio
	KindMaporder
	nKinds
)

var kindNames = [nKinds]string{"wallclock", "rand", "hostenv", "hostio", "maporder"}

// A Taint records, per kind, the first-seen origin of that kind ("" =
// untainted). Keeping an origin string instead of a bare bit makes the
// findings actionable: "wallclock (from obs.WallNow)" names the leak.
type Taint struct {
	Origins [nKinds]string
}

func (t *Taint) add(k Kind, origin string) bool {
	if t.Origins[k] != "" {
		return false
	}
	t.Origins[k] = origin
	return true
}

func (t *Taint) union(o Taint) bool {
	changed := false
	for k, origin := range o.Origins {
		if origin != "" && t.add(Kind(k), origin) {
			changed = true
		}
	}
	return changed
}

func (t Taint) empty() bool {
	for _, o := range t.Origins {
		if o != "" {
			return false
		}
	}
	return true
}

// describe renders "wallclock (from time.Now)" or
// "wallclock+rand (from time.Now, rand.Intn)" for findings.
func (t Taint) describe() string {
	var kinds, origins []string
	for k, o := range t.Origins {
		if o != "" {
			kinds = append(kinds, kindNames[k])
			origins = append(origins, o)
		}
	}
	return strings.Join(kinds, "+") + " (from " + strings.Join(origins, ", ") + ")"
}

// FuncTaint is the per-function summary exported as a fact. Parameter
// slots: slot 0 is the receiver (reserved, unused for plain functions),
// value parameters occupy slots 1..N in declaration order; a variadic
// call's extra arguments all map to the last slot.
type FuncTaint struct {
	// Results[i] is the taint result i carries regardless of arguments.
	Results []Taint `json:",omitempty"`
	// ParamFlow[s] lists the result indices parameter slot s flows into.
	ParamFlow [][]int `json:",omitempty"`
	// ParamTainted[s] is taint the function writes *through* parameter
	// slot s (a pointer, slice, map, or receiver the caller still holds).
	ParamTainted []Taint `json:",omitempty"`
	// ParamSink[s] is non-empty when parameter slot s flows into a
	// sim-persistent sink inside the function (directly or transitively);
	// it holds the sink's description.
	ParamSink []string `json:",omitempty"`
	// SinkDecl is the //flashvet:sim-sink description on the function
	// itself, "" otherwise.
	SinkDecl string `json:",omitempty"`
}

// AFact marks FuncTaint as a fact type.
func (*FuncTaint) AFact() {}

// OpsDomainFact is the package-level fact simtaint exports for every
// //flashvet:ops-domain package. It turns the declaration into something
// downstream packages can consult: a write into ops-domain-owned state
// (say, journaling an event into an *obs.Journal) is a flow INTO the ops
// plane — the sanctioned direction — and does not taint the sim-side
// object holding the reference. Anything read back OUT of that state
// still carries taint through the accessor's own summary, so the
// boundary is checked at every crossing rather than trusted wholesale.
type OpsDomainFact struct{ Declared bool }

// AFact marks OpsDomainFact as a fact type.
func (*OpsDomainFact) AFact() {}

func (ft *FuncTaint) trivial() bool {
	for _, t := range ft.Results {
		if !t.empty() {
			return false
		}
	}
	for _, f := range ft.ParamFlow {
		if len(f) > 0 {
			return false
		}
	}
	for _, t := range ft.ParamTainted {
		if !t.empty() {
			return false
		}
	}
	for _, s := range ft.ParamSink {
		if s != "" {
			return false
		}
	}
	return ft.SinkDecl == ""
}

var Analyzer = &analysis.Analyzer{
	Name: "simtaint",
	Doc: "trace nondeterminism taint across packages into sim-persistent sinks\n\n" +
		"Wall-clock, global-rand, host-env, host-FS-metadata and map-order\n" +
		"values may not flow — through any chain of returns, fields,\n" +
		"closures, channels, or cross-package calls — into declared\n" +
		"//flashvet:sim-sink state (snapshot codec, aggregate merges,\n" +
		"alerts). Function summaries travel as facts, so ops-domain\n" +
		"waivers are verified at every consumer instead of trusted.",
	FactTypes: []analysis.Fact{(*FuncTaint)(nil), (*OpsDomainFact)(nil)},
	Run:       run,
}

// maxIterations bounds the per-package fixpoint; every update is a
// monotone union over finite sets, so this is a backstop, not a limit
// reached in practice.
const maxIterations = 32

// sourceOf reports the intrinsic taint of calling fn, for sources defined
// outside the analyzed module (stdlib) or doubling as belt-and-braces for
// the ops-plane readbacks (whose summaries would taint them anyway).
func sourceOf(fn *types.Func) (Kind, string, bool) {
	pkg := fn.Pkg()
	if pkg == nil {
		return 0, "", false
	}
	name := fn.Name()
	recv := fn.Type().(*types.Signature).Recv()
	switch pkg.Path() {
	case "time":
		if recv == nil {
			switch name {
			case "Now", "Since", "Until", "After", "Tick":
				return KindWallclock, "time." + name, true
			}
		}
	case "os":
		if recv == nil {
			switch name {
			case "Getenv", "LookupEnv", "Environ", "ExpandEnv", "Hostname",
				"Getpid", "Getppid", "Getuid", "Getwd", "UserHomeDir",
				"UserCacheDir", "UserConfigDir", "TempDir":
				return KindHostenv, "os." + name, true
			case "Stat", "Lstat", "ReadDir":
				return KindHostio, "os." + name, true
			}
		}
	case "io/fs":
		if recv != nil && name == "ModTime" {
			return KindHostio, "fs.FileInfo.ModTime", true
		}
	case "flashwear/internal/hostio":
		if recv != nil && (name == "ReadDir" || name == "Stat") {
			return KindHostio, "hostio." + name, true
		}
	}
	if globalrand.IsRandPkg(pkg) && globalrand.GlobalFuncs[name] && recv == nil {
		return KindRand, "rand." + name, true
	}
	if wallclock.OpsSources[pkg.Path()][name] {
		return KindWallclock, pkg.Name() + "." + name, true
	}
	return 0, "", false
}

// A val is the abstract value of one expression: concrete taint plus the
// set of enclosing-function parameter slots that flow into it.
type val struct {
	t      Taint
	params uint64
}

func (v *val) union(o val) bool {
	changed := v.t.union(o.t)
	if o.params&^v.params != 0 {
		v.params |= o.params
		changed = true
	}
	return changed
}

// pkgTaint is the per-package analysis state.
type pkgTaint struct {
	pass    *analysis.Pass
	decls   []*ast.FuncDecl
	fnOf    map[*ast.FuncDecl]*types.Func
	sums    map[*types.Func]*FuncTaint
	envs    map[*types.Func]map[types.Object]*val
	changed bool
	// hits collects sink findings keyed by position+sink so the fixpoint
	// overwrites each site with its most complete taint description.
	hits map[string]hit
}

type hit struct {
	pos token.Pos
	msg string
}

func run(pass *analysis.Pass) error {
	ops := analysis.OpsDomain(pass, false)
	if ops {
		pass.ExportPackageFact(&OpsDomainFact{Declared: true})
	}
	p := &pkgTaint{
		pass: pass,
		fnOf: make(map[*ast.FuncDecl]*types.Func),
		sums: make(map[*types.Func]*FuncTaint),
		envs: make(map[*types.Func]map[types.Object]*val),
		hits: make(map[string]hit),
	}

	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			p.decls = append(p.decls, fd)
			p.fnOf[fd] = fn
			sum := newSummary(fn)
			if desc, malformed, found := sinkDecl(fd); found {
				if malformed {
					if !pass.FactsOnly {
						pass.Reportf(fd.Pos(), "%s declaration has no description: say what sim-persistent state %s writes", SinkPrefix, fn.Name())
					}
				} else {
					sum.SinkDecl = desc
					// Every slot, receiver included: on a declared sink
					// like alertEvent.event() the receiver IS the payload.
					for s := range sum.ParamSink {
						sum.ParamSink[s] = desc
					}
				}
			}
			p.sums[fn] = sum
		}
	}

	for iter := 0; iter < maxIterations; iter++ {
		p.changed = false
		for _, fd := range p.decls {
			p.analyzeFunc(fd)
		}
		if !p.changed {
			break
		}
	}

	// Findings are suppressed in ops-domain packages (host state is their
	// business) and on facts-only visits; the summaries are exported
	// regardless, so downstream sim packages still see the taint.
	if !ops && !pass.FactsOnly {
		keys := make([]string, 0, len(p.hits))
		for k := range p.hits {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if p.hits[keys[i]].pos != p.hits[keys[j]].pos {
				return p.hits[keys[i]].pos < p.hits[keys[j]].pos
			}
			return keys[i] < keys[j]
		})
		for _, k := range keys {
			pass.Reportf(p.hits[k].pos, "%s", p.hits[k].msg)
		}
	}

	for _, fd := range p.decls {
		fn := p.fnOf[fd]
		if sum := p.sums[fn]; !sum.trivial() {
			pass.ExportObjectFact(fn, sum)
		}
	}
	return nil
}

// sinkDecl parses a //flashvet:sim-sink declaration from a function's doc
// comment, returning its description, whether it is malformed, and whether
// one exists at all.
func sinkDecl(fd *ast.FuncDecl) (desc string, malformed, found bool) {
	if fd.Doc == nil {
		return "", false, false
	}
	for _, c := range fd.Doc.List {
		text, ok := strings.CutPrefix(c.Text, "//"+SinkPrefix)
		if !ok {
			continue
		}
		if i := strings.Index(text, "//"); i >= 0 {
			text = text[:i]
		}
		if text != "" && !strings.HasPrefix(text, " ") && !strings.HasPrefix(text, "\t") {
			continue // some other directive sharing the prefix
		}
		desc = strings.TrimSpace(text)
		return desc, desc == "", true
	}
	return "", false, false
}

func newSummary(fn *types.Func) *FuncTaint {
	sig := fn.Type().(*types.Signature)
	slots := sig.Params().Len() + 1
	return &FuncTaint{
		Results:      make([]Taint, sig.Results().Len()),
		ParamFlow:    make([][]int, slots),
		ParamTainted: make([]Taint, slots),
		ParamSink:    make([]string, slots),
	}
}

// fnWalk analyzes one function body against the current summaries.
type fnWalk struct {
	p            *pkgTaint
	fn           *types.Func
	sum          *FuncTaint
	env          map[types.Object]*val
	slotOf       map[types.Object]int
	namedResults []types.Object
	sorted       map[types.Object]bool
	mapRanges    []*ast.RangeStmt
	retTargets   []*val
}

func (p *pkgTaint) analyzeFunc(fd *ast.FuncDecl) {
	fn := p.fnOf[fd]
	env := p.envs[fn]
	if env == nil {
		env = make(map[types.Object]*val)
		p.envs[fn] = env
	}
	w := &fnWalk{
		p:      p,
		fn:     fn,
		sum:    p.sums[fn],
		env:    env,
		slotOf: make(map[types.Object]int),
		sorted: make(map[types.Object]bool),
	}

	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		for _, name := range fd.Recv.List[0].Names {
			if obj := p.pass.TypesInfo.Defs[name]; obj != nil {
				w.slotOf[obj] = 0
			}
		}
	}
	slot := 1
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			if len(field.Names) == 0 {
				slot++
				continue
			}
			for _, name := range field.Names {
				if obj := p.pass.TypesInfo.Defs[name]; obj != nil {
					w.slotOf[obj] = slot
				}
				slot++
			}
		}
	}
	if fd.Type.Results != nil {
		for _, field := range fd.Type.Results.List {
			for _, name := range field.Names {
				if obj := p.pass.TypesInfo.Defs[name]; obj != nil {
					w.namedResults = append(w.namedResults, obj)
				}
			}
		}
	}

	// The sorted-afterwards exemption for maporder taint: any object that
	// is ever handed to a sort.*/slices.* function in this body.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		cfn := p.pass.FuncOf(call)
		if cfn == nil || cfn.Pkg() == nil {
			return true
		}
		if path := cfn.Pkg().Path(); path != "sort" && path != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
				if obj := p.pass.TypesInfo.Uses[id]; obj != nil {
					w.sorted[obj] = true
				}
			}
		}
		return true
	})

	w.execBlock(fd.Body)
}

// ---- statement execution ----

func (w *fnWalk) execBlock(b *ast.BlockStmt) {
	if b == nil {
		return
	}
	for _, s := range b.List {
		w.exec(s)
	}
}

func (w *fnWalk) exec(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		w.execBlock(s)
	case *ast.ExprStmt:
		w.eval1(s.X)
	case *ast.AssignStmt:
		w.execAssign(s)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				if len(vs.Values) == 1 && len(vs.Names) > 1 {
					vals := w.evalMulti(vs.Values[0], len(vs.Names))
					for i, name := range vs.Names {
						w.bind(name, vals[i])
					}
					continue
				}
				for i, name := range vs.Names {
					if i < len(vs.Values) {
						w.bind(name, w.eval1(vs.Values[i]))
					}
				}
			}
		}
	case *ast.IfStmt:
		w.exec(s.Init)
		w.eval1(s.Cond)
		w.execBlock(s.Body)
		w.exec(s.Else)
	case *ast.ForStmt:
		w.exec(s.Init)
		if s.Cond != nil {
			w.eval1(s.Cond)
		}
		w.exec(s.Post)
		w.execBlock(s.Body)
	case *ast.RangeStmt:
		w.execRange(s)
	case *ast.SwitchStmt:
		w.exec(s.Init)
		if s.Tag != nil {
			w.eval1(s.Tag)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					w.eval1(e)
				}
				for _, st := range cc.Body {
					w.exec(st)
				}
			}
		}
	case *ast.TypeSwitchStmt:
		w.exec(s.Init)
		var subject val
		switch a := s.Assign.(type) {
		case *ast.AssignStmt:
			if len(a.Rhs) == 1 {
				subject = w.eval1(a.Rhs[0])
			}
		case *ast.ExprStmt:
			subject = w.eval1(a.X)
		}
		for _, c := range s.Body.List {
			cc, ok := c.(*ast.CaseClause)
			if !ok {
				continue
			}
			// The per-clause implicit variable gets the subject's taint.
			if obj := w.p.pass.TypesInfo.Implicits[cc]; obj != nil {
				w.update(obj, subject)
			}
			for _, st := range cc.Body {
				w.exec(st)
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				w.exec(cc.Comm)
				for _, st := range cc.Body {
					w.exec(st)
				}
			}
		}
	case *ast.SendStmt:
		v := w.eval1(s.Value)
		w.assignThrough(s.Chan, v)
	case *ast.ReturnStmt:
		w.execReturn(s)
	case *ast.DeferStmt:
		w.evalCall(s.Call)
	case *ast.GoStmt:
		w.evalCall(s.Call)
	case *ast.LabeledStmt:
		w.exec(s.Stmt)
	}
}

func (w *fnWalk) execRange(s *ast.RangeStmt) {
	xv := w.eval1(s.X)
	isMap := false
	if tv, ok := w.p.pass.TypesInfo.Types[s.X]; ok {
		_, isMap = tv.Type.Underlying().(*types.Map)
	}
	if s.Key != nil {
		w.assignExpr(s.Key, xv, s.Tok == token.DEFINE)
	}
	if s.Value != nil {
		w.assignExpr(s.Value, xv, s.Tok == token.DEFINE)
	}
	if isMap {
		w.mapRanges = append(w.mapRanges, s)
		w.execBlock(s.Body)
		w.mapRanges = w.mapRanges[:len(w.mapRanges)-1]
		return
	}
	w.execBlock(s.Body)
}

func (w *fnWalk) execReturn(s *ast.ReturnStmt) {
	if len(w.retTargets) > 0 {
		// Inside a function literal: returns feed the closure's value.
		target := w.retTargets[len(w.retTargets)-1]
		for _, e := range s.Results {
			v := w.eval1(e)
			if target.union(v) {
				w.p.changed = true
			}
		}
		return
	}
	nres := len(w.sum.Results)
	var vals []val
	switch {
	case len(s.Results) == 0:
		// Bare return: named results carry the values.
		vals = make([]val, nres)
		for i, obj := range w.namedResults {
			if i < nres {
				vals[i] = w.lookup(obj)
			}
		}
	case len(s.Results) == 1 && nres > 1:
		vals = w.evalMulti(s.Results[0], nres)
	default:
		for _, e := range s.Results {
			vals = append(vals, w.eval1(e))
		}
	}
	for i, v := range vals {
		if i >= nres {
			break
		}
		if w.sum.Results[i].union(v.t) {
			w.p.changed = true
		}
		for slot := 0; slot < 64; slot++ {
			if v.params&(1<<slot) == 0 {
				continue
			}
			if slot < len(w.sum.ParamFlow) && !containsInt(w.sum.ParamFlow[slot], i) {
				w.sum.ParamFlow[slot] = insertSorted(w.sum.ParamFlow[slot], i)
				w.p.changed = true
			}
		}
	}
}

func (w *fnWalk) execAssign(s *ast.AssignStmt) {
	var vals []val
	if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
		vals = w.evalMulti(s.Rhs[0], len(s.Lhs))
	} else {
		for _, e := range s.Rhs {
			vals = append(vals, w.eval1(e))
		}
	}
	for i, lhs := range s.Lhs {
		if i >= len(vals) {
			break
		}
		v := vals[i]
		if s.Tok != token.ASSIGN && s.Tok != token.DEFINE {
			// Compound assignment reads the old value too.
			v.union(w.eval1(lhs))
		}
		// maporder: growing a loop-outer slice inside `range map`, unless
		// the function sorts it afterwards.
		if len(w.mapRanges) > 0 && i < len(s.Rhs) && w.growingAppend(lhs, s.Rhs[min(i, len(s.Rhs)-1)]) {
			if obj := w.rootObject(lhs); obj != nil && !w.sorted[obj] {
				rng := w.mapRanges[len(w.mapRanges)-1]
				if obj.Pos() < rng.Pos() || obj.Pos() >= rng.End() {
					v.t.add(KindMaporder, "range over map")
				}
			}
		}
		w.assignExpr(lhs, v, s.Tok == token.DEFINE)
	}
}

// bind assigns v to a freshly declared identifier.
func (w *fnWalk) bind(name *ast.Ident, v val) {
	if obj := w.p.pass.TypesInfo.Defs[name]; obj != nil {
		w.update(obj, v)
	}
}

// assignExpr routes an assignment to lhs: plain identifiers update their
// object; writes through selectors, indexes, and dereferences taint the
// root object (coarse object-level granularity — one tainted field taints
// the struct, which is conservative but keeps the analysis tractable).
func (w *fnWalk) assignExpr(lhs ast.Expr, v val, define bool) {
	if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
		if define {
			w.bind(id, v)
			return
		}
		if obj := w.p.pass.TypesInfo.Uses[id]; obj != nil {
			w.update(obj, v)
		}
		return
	}
	w.assignThrough(lhs, v)
}

// assignThrough handles writes through an lvalue chain (x.f = v,
// m[k] = v, *p = v, ch <- v): the root object is tainted, and if the root
// is a pointer-like parameter — one whose pointee the caller still holds
// — the write escapes to the caller via ParamTainted. Writes into a
// by-value parameter mutate a local copy and stay local. Writes whose
// root is an ops-domain-typed value (configuring a journal or tracer
// handle) are the sanctioned sim→ops direction and do not make the
// handle sim-tainted, mirroring the call-site ParamTainted rule.
func (w *fnWalk) assignThrough(lhs ast.Expr, v val) {
	obj := w.rootObject(lhs)
	if obj == nil {
		return
	}
	if w.opsNamedType(obj.Type()) {
		return
	}
	w.update(obj, v)
	if slot, ok := w.slotOf[obj]; ok && !v.t.empty() && pointerLike(paramType(w.fn, slot)) {
		if slot < len(w.sum.ParamTainted) && w.sum.ParamTainted[slot].union(v.t) {
			w.p.changed = true
		}
	}
}

// paramType returns the static type of parameter slot s of fn (slot 0 =
// receiver), or nil when the slot does not exist.
func paramType(fn *types.Func, slot int) types.Type {
	sig := fn.Type().(*types.Signature)
	if slot == 0 {
		if recv := sig.Recv(); recv != nil {
			return recv.Type()
		}
		return nil
	}
	if slot-1 < sig.Params().Len() {
		return sig.Params().At(slot - 1).Type()
	}
	return nil
}

// pointerLike reports whether a write through a value of type t is
// visible to whoever supplied the value. Type parameters count: their
// instantiations may be pointerish.
func pointerLike(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Interface, *types.Signature:
		return true
	}
	return false
}

func (w *fnWalk) rootObject(e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if obj := w.p.pass.TypesInfo.Uses[x]; obj != nil {
				return obj
			}
			return w.p.pass.TypesInfo.Defs[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// update unions v into obj's abstract value.
func (w *fnWalk) update(obj types.Object, v val) {
	cur, ok := w.env[obj]
	if !ok {
		cur = &val{}
		w.env[obj] = cur
	}
	if cur.union(v) {
		w.p.changed = true
	}
}

// lookup reads obj's abstract value: accumulated taint plus, for
// parameters, the slot bit marking caller-provided flow.
func (w *fnWalk) lookup(obj types.Object) val {
	var v val
	if cur, ok := w.env[obj]; ok {
		v.union(*cur)
	}
	if slot, ok := w.slotOf[obj]; ok {
		v.params |= 1 << slot
	}
	return v
}

// ---- expression evaluation ----

func (w *fnWalk) eval1(e ast.Expr) val {
	if e == nil {
		return val{}
	}
	switch e := e.(type) {
	case *ast.Ident:
		obj := w.p.pass.TypesInfo.Uses[e]
		if obj == nil {
			obj = w.p.pass.TypesInfo.Defs[e]
		}
		if obj == nil {
			return val{}
		}
		switch obj.(type) {
		case *types.Var:
			return w.lookup(obj)
		}
		return val{}
	case *ast.ParenExpr:
		return w.eval1(e.X)
	case *ast.SelectorExpr:
		return w.eval1(e.X)
	case *ast.StarExpr:
		return w.eval1(e.X)
	case *ast.UnaryExpr:
		return w.eval1(e.X)
	case *ast.BinaryExpr:
		v := w.eval1(e.X)
		v.union(w.eval1(e.Y))
		return v
	case *ast.CallExpr:
		var v val
		for _, r := range w.evalCall(e) {
			v.union(r)
		}
		return v
	case *ast.IndexExpr:
		if w.isFuncRef(e.X) {
			return val{} // generic function instantiation used as a value
		}
		v := w.eval1(e.X)
		v.union(w.eval1(e.Index))
		return v
	case *ast.IndexListExpr:
		if w.isFuncRef(e.X) {
			return val{}
		}
		return w.eval1(e.X)
	case *ast.SliceExpr:
		return w.eval1(e.X)
	case *ast.TypeAssertExpr:
		return w.eval1(e.X)
	case *ast.CompositeLit:
		var v val
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				v.union(w.eval1(kv.Value))
				continue
			}
			v.union(w.eval1(elt))
		}
		return v
	case *ast.KeyValueExpr:
		return w.eval1(e.Value)
	case *ast.FuncLit:
		// The closure's value is whatever its returns produce; its body
		// executes here (conservatively: effects on captured variables
		// and sink calls inside count whether or not it ever runs).
		var v val
		w.retTargets = append(w.retTargets, &v)
		w.execBlock(e.Body)
		w.retTargets = w.retTargets[:len(w.retTargets)-1]
		return v
	}
	return val{}
}

func (w *fnWalk) isFuncRef(e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		_, ok := w.p.pass.TypesInfo.Uses[x].(*types.Func)
		return ok
	case *ast.SelectorExpr:
		_, ok := w.p.pass.TypesInfo.Uses[x.Sel].(*types.Func)
		return ok
	}
	return false
}

// evalMulti evaluates a single expression expected to produce n values
// (multi-result call, v-ok map/assert/receive forms).
func (w *fnWalk) evalMulti(e ast.Expr, n int) []val {
	if call, ok := ast.Unparen(e).(*ast.CallExpr); ok {
		vals := w.evalCall(call)
		for len(vals) < n {
			vals = append(vals, val{})
		}
		return vals
	}
	vals := make([]val, n)
	vals[0] = w.eval1(e) // the ok/err companion carries no data taint
	return vals
}

// callee resolves a call to the invoked *types.Func, unwrapping generic
// instantiation syntax; nil for builtins, conversions, and indirect calls.
func (w *fnWalk) callee(call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	for {
		switch f := fun.(type) {
		case *ast.IndexExpr:
			fun = ast.Unparen(f.X)
			continue
		case *ast.IndexListExpr:
			fun = ast.Unparen(f.X)
			continue
		}
		break
	}
	switch f := fun.(type) {
	case *ast.Ident:
		fn, _ := w.p.pass.TypesInfo.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := w.p.pass.TypesInfo.Uses[f.Sel].(*types.Func)
		return fn
	}
	return nil
}

func (w *fnWalk) evalCall(call *ast.CallExpr) []val {
	info := w.p.pass.TypesInfo

	// Conversions: T(x) carries x's taint.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return []val{w.eval1(call.Args[0])}
		}
		return []val{{}}
	}

	// Builtins: append/copy/min/max/len/cap propagate, make/new are clean.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make", "new", "recover":
				return []val{{}}
			default:
				var v val
				for _, a := range call.Args {
					if _, isType := info.Types[a]; isType && info.Types[a].IsType() {
						continue
					}
					v.union(w.eval1(a))
				}
				return []val{v}
			}
		}
	}

	fn := w.callee(call)
	if fn == nil {
		// Indirect call through a function value: the result carries the
		// callee value's taint (closure capture) and every argument's.
		v := w.eval1(call.Fun)
		for _, a := range call.Args {
			v.union(w.eval1(a))
		}
		return w.spread(call, v)
	}

	// Assemble argument slots: receiver at 0, parameters from 1.
	sig := fn.Type().(*types.Signature)
	nparams := sig.Params().Len()
	slots := make([]val, nparams+1)
	args := call.Args
	if sig.Recv() != nil {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if _, isSel := info.Selections[sel]; isSel {
				slots[0] = w.eval1(sel.X)
			}
		}
		if len(args) == nparams+1 {
			// Method expression T.M(recv, ...): explicit receiver first.
			slots[0].union(w.eval1(args[0]))
			args = args[1:]
		}
	}
	for i, a := range args {
		s := i + 1
		if s > nparams {
			s = nparams // variadic overflow maps to the last slot
		}
		slots[s].union(w.eval1(a))
	}

	if k, origin, ok := sourceOf(fn); ok {
		var v val
		v.t.add(k, origin)
		for _, s := range slots {
			v.union(s)
		}
		return w.spread(call, v)
	}

	sum := w.summaryOf(fn)
	if sum == nil {
		// Unknown external: conservatively assume everything flows to
		// every result — this is what catches laundering through
		// fmt.Sprintf, strconv, bytes.Buffer, and friends.
		var v val
		for _, s := range slots {
			v.union(s)
		}
		return w.spread(call, v)
	}

	// Sink frontier: a concrete tainted value meeting a sink parameter is
	// a finding; a caller parameter meeting one makes the caller a sink
	// in that parameter (transitive propagation).
	for s, desc := range sum.ParamSink {
		if desc == "" || s >= len(slots) {
			continue
		}
		if !slots[s].t.empty() {
			pos := call.Pos()
			if s >= 1 && s-1 < len(args) {
				pos = args[s-1].Pos()
			}
			key := fmt.Sprintf("%d/%s", pos, displayName(w.p.pass, fn))
			w.p.hits[key] = hit{pos: pos, msg: fmt.Sprintf(
				"%s value flows into sim-persistent sink %s (%s): simulation state must be a pure function of the Spec",
				slots[s].t.describe(), displayName(w.p.pass, fn), desc)}
		}
		// Transitive sink-ness propagates through data parameters but
		// NOT through the caller's receiver (q == 0): with object-level
		// taint granularity, an orchestrator's receiver aggregates every
		// field it owns, and "this method eventually touches a sink"
		// would flag every call on it. The data that actually enters the
		// sink still flags at the call site that passes it.
		for q := 1; q < 64; q++ {
			if slots[s].params&(1<<q) == 0 {
				continue
			}
			if q < len(w.sum.ParamSink) && w.sum.ParamSink[q] == "" {
				w.sum.ParamSink[q] = desc
				w.p.changed = true
			}
		}
	}

	// Writes through arguments (including the receiver) escape to the
	// caller's objects — unless the written-through state is owned by a
	// declared ops-domain package (journals, metric registries, traces),
	// or the callee itself lives in one: stashing host data inside the
	// ops plane is the sanctioned direction, and an ops-domain function's
	// writes (a journal persisting wall-stamped events through the
	// caller's fs handle) are ops-plane effects by that declaration.
	// Whatever is later read back out carries taint via the accessor's
	// summary. Without this, one journaled event would taint the whole
	// Campaign object forever.
	opsCallee := fn.Pkg() != nil && fn.Pkg() != w.p.pass.Pkg && w.opsDomainPkg(fn.Pkg().Path())
	for s, t := range sum.ParamTainted {
		if t.empty() || opsCallee || w.opsDomainState(fn, s) {
			continue
		}
		var target ast.Expr
		if s == 0 {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				target = sel.X
			}
		} else if s-1 < len(args) {
			target = args[s-1]
		}
		if target != nil {
			w.assignThrough(target, val{t: t})
		}
	}

	results := make([]val, len(sum.Results))
	for i, t := range sum.Results {
		results[i].t.union(t)
	}
	for s, flows := range sum.ParamFlow {
		if s >= len(slots) {
			continue
		}
		for _, i := range flows {
			if i < len(results) {
				results[i].union(slots[s])
			}
		}
	}
	// The boundary rule, outbound: a result whose named type lives in an
	// ops-domain package (*obs.Journal, *runtrace.Span) is an opaque
	// handle to ops-plane state, not sim data — holding one is clean.
	// Error results are cleared for the same reason: an error is a
	// diagnostic about a host operation, not simulation data, and
	// propagating a journal append's error would otherwise carry its
	// wall-stamp taint into every caller that stores or returns err.
	// The dangerous readbacks that return plain values (obs.WallNow,
	// runtrace.Totals) never reach this path: sourceOf matched them
	// above, before summaries were consulted.
	for i := range results {
		if i < sig.Results().Len() {
			if rt := sig.Results().At(i).Type(); w.opsNamedType(rt) || isErrorType(rt) {
				results[i].t = Taint{}
			}
		}
	}
	if len(results) == 0 {
		return nil
	}
	return results
}

// spread shapes one merged value to the call's result arity.
func (w *fnWalk) spread(call *ast.CallExpr, v val) []val {
	n := 1
	if tv, ok := w.p.pass.TypesInfo.Types[call]; ok {
		if tuple, ok := tv.Type.(*types.Tuple); ok {
			n = tuple.Len()
		}
	}
	if n == 0 {
		return nil
	}
	results := make([]val, n)
	for i := range results {
		results[i] = v
	}
	return results
}

// opsDomainState reports whether parameter slot s of fn has a named type
// declared in a //flashvet:ops-domain package (per its exported package
// fact) other than the package under analysis.
func (w *fnWalk) opsDomainState(fn *types.Func, s int) bool {
	return w.opsNamedType(paramType(fn, s))
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// opsDomainPkg reports whether the package at path declared itself
// ops-domain (exported an OpsDomainFact).
func (w *fnWalk) opsDomainPkg(path string) bool {
	var f OpsDomainFact
	return w.p.pass.ImportPackageFact(path, &f) && f.Declared
}

// opsNamedType reports whether t (after unwrapping pointers) is a named
// type declared in an ops-domain package other than the one under
// analysis.
func (w *fnWalk) opsNamedType(t types.Type) bool {
	for {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			continue
		}
		break
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	pkg := named.Obj().Pkg()
	if pkg == nil || pkg == w.p.pass.Pkg {
		return false
	}
	var f OpsDomainFact
	return w.p.pass.ImportPackageFact(pkg.Path(), &f) && f.Declared
}

// summaryOf finds the summary for fn: in-progress for this package's own
// functions, imported as a fact for dependencies (including facts-only
// packages and ops-domain packages — that import is the verification the
// waiver system was missing).
func (w *fnWalk) summaryOf(fn *types.Func) *FuncTaint {
	origin := fn.Origin()
	if sum, ok := w.p.sums[origin]; ok {
		return sum
	}
	var ft FuncTaint
	if w.p.pass.ImportObjectFact(origin, &ft) {
		return &ft
	}
	return nil
}

// displayName renders fn compactly: "(*enc).i64" in-package,
// "ops.Stamp" cross-package.
func displayName(pass *analysis.Pass, fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil {
		return "(" + types.TypeString(recv.Type(), types.RelativeTo(pass.Pkg)) + ")." + fn.Name()
	}
	if fn.Pkg() != nil && fn.Pkg() != pass.Pkg {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// growingAppend reports whether rhs is `append(base, ...)` growing lhs's
// own backing object — the self-append idiom whose element order is the
// enclosing iteration order. A keyed rebuild inside a map range
// (m[k] = append([]byte(nil), v...)) copies content addressed by the
// range key and is order-independent, so it carries no maporder taint.
func (w *fnWalk) growingAppend(lhs, rhs ast.Expr) bool {
	if !isAppend(w.p.pass, rhs) {
		return false
	}
	call := ast.Unparen(rhs).(*ast.CallExpr)
	if len(call.Args) == 0 {
		return false
	}
	base := w.rootObject(call.Args[0])
	return base != nil && base == w.rootObject(lhs)
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

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func insertSorted(s []int, v int) []int {
	i := sort.SearchInts(s, v)
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}
