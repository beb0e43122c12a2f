package analysis

import (
	"go/types"
	"reflect"
	"sort"
)

// A Fact is a typed claim an analyzer attaches to a package-level
// object so that analyses of importing packages can see it — the
// mechanism that turns per-package syntax checks into interprocedural
// ones (a leaf function proven nondeterministic taints its callers
// three packages up). Facts mirror golang.org/x/tools/go/analysis
// facts: each concrete fact is a pointer to a struct, declared in its
// analyzer's FactTypes.
type Fact interface {
	// AFact marks the type as a fact; it has no behaviour.
	AFact()
}

// ObjectPath encodes a package-level object as a stable string key,
// unique within its package: facts are addressed by (package path,
// object path), which survives the object identity split between a
// package type-checked from source and the same package seen through
// export data by an importer. Only package-level objects are
// addressable — functions, methods (keyed by receiver type), types and
// variables; anything else (locals, fields, imported aliases) returns
// false, which confines facts to the objects an importing package can
// actually name.
func ObjectPath(obj types.Object) (string, bool) {
	if obj == nil || obj.Pkg() == nil {
		return "", false
	}
	switch o := obj.(type) {
	case *types.Func:
		sig, ok := o.Type().(*types.Signature)
		if !ok {
			return "", false
		}
		if recv := sig.Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok {
				return "", false
			}
			return "M." + named.Obj().Name() + "." + o.Name(), true
		}
		return "F." + o.Name(), true
	case *types.TypeName:
		if o.Parent() != o.Pkg().Scope() {
			return "", false
		}
		return "T." + o.Name(), true
	case *types.Var:
		if o.IsField() || o.Parent() != o.Pkg().Scope() {
			return "", false
		}
		return "V." + o.Name(), true
	}
	return "", false
}

// factKey addresses one stored fact: which analyzer said what about
// which object. A (key, fact-type) pair holds at most one fact — a
// later export overwrites.
type factKey struct {
	analyzer string
	pkg      string
	obj      string
	typ      string
}

// factTypeName names a fact's concrete struct type (pointers
// dereferenced), the last component of the fact key.
func factTypeName(f Fact) string {
	t := reflect.TypeOf(f)
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	return t.Name()
}

// A FactStore holds every fact exported during one analysis run. It
// lives only in memory: Run visits packages in topological import
// order over one store, so a package's facts are complete before any
// importer reads them. The zero value is not usable; call
// NewFactStore.
type FactStore struct {
	facts map[factKey]Fact
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{facts: map[factKey]Fact{}}
}

func (s *FactStore) put(analyzer, pkg, obj string, fact Fact) {
	s.facts[factKey{analyzer, pkg, obj, factTypeName(fact)}] = fact
}

func (s *FactStore) get(analyzer, pkg, obj, typ string) (Fact, bool) {
	f, ok := s.facts[factKey{analyzer, pkg, obj, typ}]
	return f, ok
}

// A FactRecord is one stored fact with its owner, as Records lists it.
type FactRecord struct {
	Analyzer string
	Pkg      string
	Obj      string
	Fact     Fact
}

// Records returns every stored fact, sorted by analyzer, package,
// object and fact type, so tests can inspect what a run exported.
func (s *FactStore) Records() []FactRecord {
	keys := make([]factKey, 0, len(s.facts))
	for k := range s.facts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.analyzer != b.analyzer {
			return a.analyzer < b.analyzer
		}
		if a.pkg != b.pkg {
			return a.pkg < b.pkg
		}
		if a.obj != b.obj {
			return a.obj < b.obj
		}
		return a.typ < b.typ
	})
	recs := make([]FactRecord, 0, len(keys))
	for _, k := range keys {
		recs = append(recs, FactRecord{Analyzer: k.analyzer, Pkg: k.pkg, Obj: k.obj, Fact: s.facts[k]})
	}
	return recs
}
