// Package analysis is a self-contained static-analysis framework
// mirroring the golang.org/x/tools/go/analysis API surface on the
// standard library alone (this repository builds offline, so the
// x/tools module is not available). It powers sx4lint, the checker
// that promotes the repository's determinism, layering and
// golden-stability invariants from "caught by a golden diff after the
// fact" to "rejected at build time".
//
// The shape is the familiar one: an Analyzer owns a Run function over
// a Pass; a Pass exposes the parsed and type-checked package and
// collects Diagnostics. Packages load through `go list -export`, with
// imports resolved from compiler export data (see load.go), so every
// analyzer sees fully type-checked syntax. Run analyzes every loaded
// package in one process, and facts flow between packages through one
// in-memory FactStore. The analysistest subpackage runs analyzers over
// fixture trees with // want expectations, exactly like its x/tools
// namesake.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name is the analyzer's command-line and diagnostic identifier.
	Name string
	// Doc is the one-paragraph help text: the invariant enforced and
	// why it exists.
	Doc string
	// FactTypes declares the concrete fact types the analyzer may
	// export or import (each a pointer to a struct, e.g.
	// (*Nondeterministic)(nil)). Analyzers with no fact types are
	// purely per-package.
	FactTypes []Fact
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// A Pass is one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files is the package's parsed syntax (non-test files only: the
	// invariants sx4lint enforces are production-code invariants, and
	// tests legitimately construct concrete machines, wall clocks and
	// throwaway rand streams).
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	facts       *FactStore
	ignores     map[lineKey]bool
	diagnostics []Diagnostic
}

// checkFactType panics unless the analyzer declared fact's concrete
// type in FactTypes — an undeclared fact is a programming error in the
// analyzer, not a property of the analyzed code.
func (p *Pass) checkFactType(fact Fact) {
	want := reflect.TypeOf(fact)
	for _, f := range p.Analyzer.FactTypes {
		if reflect.TypeOf(f) == want {
			return
		}
	}
	panic(fmt.Sprintf("analysis: analyzer %q uses undeclared fact type %T", p.Analyzer.Name, fact))
}

// ExportObjectFact attaches fact to a package-level object, making it
// visible to this analyzer's passes over every package that imports
// obj's package through the run's shared fact store. Objects without
// a stable path — locals, fields — silently export nothing: an
// importer could never name them, so no cross-package flow is lost.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	p.checkFactType(fact)
	if p.facts == nil || obj == nil || obj.Pkg() == nil {
		return
	}
	if path, ok := ObjectPath(obj); ok {
		p.facts.put(p.Analyzer.Name, obj.Pkg().Path(), path, fact)
	}
}

// ImportObjectFact copies the fact of fact's concrete type attached to
// obj into fact, reporting whether one was found. obj is typically an
// object resolved from this package's view of an import — the (package
// path, object path) key bridges the identity gap between that view
// and the source-checked package the fact was exported from.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	p.checkFactType(fact)
	if p.facts == nil || obj == nil || obj.Pkg() == nil {
		return false
	}
	path, ok := ObjectPath(obj)
	if !ok {
		return false
	}
	got, ok := p.facts.get(p.Analyzer.Name, obj.Pkg().Path(), path, factTypeName(fact))
	if !ok {
		return false
	}
	rv := reflect.ValueOf(fact)
	gv := reflect.ValueOf(got)
	if rv.Kind() != reflect.Pointer || gv.Kind() != reflect.Pointer || rv.Type() != gv.Type() {
		return false
	}
	rv.Elem().Set(gv.Elem())
	return true
}

// Waived reports whether an //sx4lint:ignore waiver for this analyzer
// covers pos (on its line or the line above). Run uses the same index
// to suppress diagnostics; fact-producing analyzers also consult it to
// stop propagation at a reviewed site — a waived call is an audited
// assertion that the callee's nondeterminism does not reach this
// caller's output, so the caller must not inherit the taint.
func (p *Pass) Waived(pos token.Pos) bool {
	if p.ignores == nil {
		return false
	}
	at := p.Fset.Position(pos)
	return p.ignores[lineKey{at.Filename, at.Line, p.Analyzer.Name}] ||
		p.ignores[lineKey{at.Filename, at.Line - 1, p.Analyzer.Name}]
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diagnostics = append(p.diagnostics, Diagnostic{
		Pos:      pos,
		Position: p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one reported violation.
type Diagnostic struct {
	Pos      token.Pos
	Position token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Position, d.Message, d.Analyzer)
}

// PathBase returns the last element of an import path.
func PathBase(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}

// IsPkgFunc reports whether obj is the package-level function
// pkgpath.name (methods have a receiver and never match).
func IsPkgFunc(obj types.Object, pkgpath string) (string, bool) {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != pkgpath {
		return "", false
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return "", false
	}
	return fn.Name(), true
}
