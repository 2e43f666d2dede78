package analysis

// Internal test for the facts layer's own invariant — origin-keyed
// generic summaries — without a build. The suite-level tests exercise
// fact export and import end to end through the analyzers.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// summaryFact stands in for an analyzer summary (simtaint's FuncTaint has
// the same shape: plain exported fields, JSON-marshalable).
type summaryFact struct {
	Kinds []string
}

func (*summaryFact) AFact() {}

// newTestPass wires a Pass just far enough for fact export/import: the
// analyzer name keys the store.
func newTestPass(a *Analyzer, pkg *types.Package, store *FactStore) *Pass {
	return &Pass{Analyzer: a, Pkg: pkg, facts: store}
}

// TestGenericInstantiationSharesSummary pins the property ObjectKey's
// Origin() call buys: a summary exported while analyzing the generic
// declaration is found again at a call site that sees only an
// instantiated method object. Without origin keying, every
// instantiation would miss the summary and taint would silently drop
// at generic boundaries (the laundering case simtaint's identity[T]
// fixture guards end to end).
func TestGenericInstantiationSharesSummary(t *testing.T) {
	const src = `package clockbox

type Box[T any] struct{ v T }

func (b *Box[T]) Get() T { return b.v }

func Via[T any](v T) T { return v }
`
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "box.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	conf := types.Config{}
	pkg, err := conf.Check("flashwear/internal/clockbox", fset, []*ast.File{file}, nil)
	if err != nil {
		t.Fatalf("type-check: %v", err)
	}

	box := pkg.Scope().Lookup("Box").Type().(*types.Named)
	inst, err := types.Instantiate(nil, box, []types.Type{types.Typ[types.Int]}, false)
	if err != nil {
		t.Fatalf("instantiate Box[int]: %v", err)
	}
	sel, _, _ := types.LookupFieldOrMethod(types.NewPointer(inst), false, pkg, "Get")
	instGet, ok := sel.(*types.Func)
	if !ok {
		t.Fatalf("Box[int].Get lookup returned %T", sel)
	}
	genGet, _, _ := types.LookupFieldOrMethod(types.NewPointer(box), false, pkg, "Get")

	if ObjectKey(instGet) != ObjectKey(genGet.(*types.Func)) {
		t.Fatalf("instantiated method keys differently from its origin: %q vs %q",
			ObjectKey(instGet), ObjectKey(genGet.(*types.Func)))
	}
	if !strings.Contains(ObjectKey(instGet), "flashwear/internal/clockbox.Box") {
		t.Fatalf("ObjectKey(Box[int].Get) = %q, want the origin's qualified name", ObjectKey(instGet))
	}

	// The fact pipeline: export on the origin (what a pass analyzing the
	// generic's package does), import via the instance (what a caller's
	// pass holds).
	anl := &Analyzer{Name: "simtaint"}
	store := NewFactStore()
	newTestPass(anl, pkg, store).ExportObjectFact(genGet, &summaryFact{Kinds: []string{"wallclock"}})

	var got summaryFact
	caller := newTestPass(anl, types.NewPackage("flashwear/internal/fleetd", "fleetd"), store)
	if !caller.ImportObjectFact(instGet, &got) {
		t.Fatal("summary exported on the generic origin is invisible at the instantiated call site")
	}
	if len(got.Kinds) != 1 || got.Kinds[0] != "wallclock" {
		t.Fatalf("instance-imported summary = %+v, want wallclock", got)
	}
}
