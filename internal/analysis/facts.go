package analysis

import (
	"encoding/json"
	"fmt"
	"go/types"
)

// A Fact is a serializable summary an analyzer attaches to a package-level
// object (usually a function) or to a package as a whole, so that
// downstream packages can reason about callee behavior without re-reading
// its source. This is the same move golang.org/x/tools/go/analysis makes
// with exported facts, rebuilt here on the standard library: facts are
// JSON documents keyed by (analyzer, object), kept in memory for one
// whole-module run (Run analyzes packages in dependency order, so a
// callee's facts exist before its callers are visited).
//
// The marker method keeps fact types deliberate: only types that declare
// themselves facts participate, exactly as in x/tools.
type Fact interface {
	AFact()
}

// A FactStore accumulates facts across one analysis run. Facts are stored
// marshaled, so an import is always a copy: a pass cannot alias (and
// mutate) the summary another package exported.
type FactStore struct {
	// obj maps analyzer -> object key -> fact JSON.
	obj map[string]map[string]json.RawMessage
	// pkg maps analyzer -> package path -> fact JSON.
	pkg map[string]map[string]json.RawMessage
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{
		obj: make(map[string]map[string]json.RawMessage),
		pkg: make(map[string]map[string]json.RawMessage),
	}
}

// ObjectKey is the stable cross-package identity facts are keyed by: the
// fully qualified name, which for methods includes the receiver type
// ("(flashwear/internal/fleetd.enc).i64") and for package functions the
// import path ("flashwear/internal/obs.WallNow"). Generic functions key by
// their origin, so every instantiation shares one summary.
func ObjectKey(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin().FullName()
	}
	if obj.Pkg() != nil {
		return obj.Pkg().Path() + "." + obj.Name()
	}
	return obj.Name()
}

func (s *FactStore) set(m map[string]map[string]json.RawMessage, analyzer, key string, fact Fact) error {
	data, err := json.Marshal(fact)
	if err != nil {
		return fmt.Errorf("analysis: encoding %s fact for %s: %v", analyzer, key, err)
	}
	if m[analyzer] == nil {
		m[analyzer] = make(map[string]json.RawMessage)
	}
	m[analyzer][key] = data
	return nil
}

func get(m map[string]map[string]json.RawMessage, analyzer, key string, fact Fact) bool {
	data, ok := m[analyzer][key]
	if !ok {
		return false
	}
	return json.Unmarshal(data, fact) == nil
}

// ExportObjectFact records fact for obj under the given analyzer.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if err := p.facts.set(p.facts.obj, p.Analyzer.Name, ObjectKey(obj), fact); err != nil {
		panic(err) // a fact type that cannot marshal is a programming error
	}
}

// ImportObjectFact copies the fact recorded for obj by this pass's
// analyzer into fact, reporting whether one existed.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	return get(p.facts.obj, p.Analyzer.Name, ObjectKey(obj), fact)
}

// ExportPackageFact records fact for the package under analysis.
func (p *Pass) ExportPackageFact(fact Fact) {
	if err := p.facts.set(p.facts.pkg, p.Analyzer.Name, p.Pkg.Path(), fact); err != nil {
		panic(err)
	}
}

// ImportPackageFact copies the fact recorded for the package at path into
// fact, reporting whether one existed.
func (p *Pass) ImportPackageFact(path string, fact Fact) bool {
	return get(p.facts.pkg, p.Analyzer.Name, path, fact)
}
