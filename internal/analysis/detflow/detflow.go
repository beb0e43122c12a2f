// Package detflow is an interprocedural taint analysis for
// nondeterminism. A function that transitively reaches a
// nondeterminism source — the wall clock, the global math/rand
// stream, randomized map iteration order, or goroutine completion
// order (multi-way select) — is tagged with a Nondeterministic fact,
// exported through the analysis framework's fact store so the taint
// crosses package boundaries. Reaching such a function from a
// critical context is a diagnostic: the root sx4bench package, the
// core/ncar/check render-and-verify packages, and any Fingerprint
// method anywhere in the module, because those are the paths whose
// outputs the 21 byte-identical goldens (and the compiled-trace, fleet
// and sx4d caches keyed on fingerprints) pin down.
//
// A waiver comment
//
//	//sx4lint:ignore detflow <reason>
//
// on a call site is a taint *barrier*, not just a suppression: it
// asserts, with a written reason, that the callee's nondeterminism
// does not reach this caller's output, so the caller does not inherit
// the taint. Without barrier semantics one audited facade call would
// cascade waivers all the way up the call graph.
package detflow

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"sx4bench/internal/analysis"
)

// Nondeterministic is the fact exported for every package-level
// function or method whose result or effects can vary between runs
// with identical inputs. Reason is a human-readable chain back to the
// intrinsic source ("calls serve.answer, which is nondeterministic:
// selects between 2 ready channel operations...").
type Nondeterministic struct {
	Reason string
}

// AFact marks Nondeterministic as an analysis fact.
func (*Nondeterministic) AFact() {}

var Analyzer = &analysis.Analyzer{
	Name: "detflow",
	Doc: "taint analysis: functions transitively reaching the wall clock, global rand, map order or goroutine ordering " +
		"are tagged Nondeterministic via facts; any flow into the root package, core/ncar/check, or a Fingerprint method is flagged",
	FactTypes: []analysis.Fact{(*Nondeterministic)(nil)},
	Run:       run,
}

// timeFuncs are the package time functions that read the wall clock
// (or arm a wall-clock timer). Monotonic readings are no better for
// determinism than absolute ones.
var timeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"Tick": true, "After": true, "AfterFunc": true,
	"NewTicker": true, "NewTimer": true,
}

// criticalPrefixes are the package subtrees whose functions may not
// reach nondeterminism: everything under them feeds golden-checked
// artifacts or verification verdicts.
var criticalPrefixes = []string{
	"sx4bench/internal/core",
	"sx4bench/internal/ncar",
	"sx4bench/internal/check",
}

// maxReason caps taint reason chains so deep call graphs don't grow
// unbounded facts or unreadable diagnostics.
const maxReason = 200

type source struct {
	pos    token.Pos
	reason string
}

type callEdge struct {
	pos    token.Pos
	callee *types.Func
}

type funcInfo struct {
	obj     *types.Func
	sources []source
	calls   []callEdge
}

func run(pass *analysis.Pass) error {
	var infos []*funcInfo
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[decl.Name].(*types.Func)
			if !ok {
				continue
			}
			infos = append(infos, collect(pass, obj, decl.Body))
		}
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].obj.Pos() < infos[j].obj.Pos() })

	// Resolve cross-package edges against imported facts once: a
	// callee outside this package is tainted iff its source package
	// exported a Nondeterministic fact for it.
	external := map[*types.Func]string{}
	for _, fi := range infos {
		for _, e := range fi.calls {
			if e.callee.Pkg() == pass.Pkg {
				continue
			}
			if _, seen := external[e.callee]; seen {
				continue
			}
			var fact Nondeterministic
			if pass.ImportObjectFact(e.callee, &fact) {
				external[e.callee] = fact.Reason
			}
		}
	}

	// Fixpoint over the local call graph, seeded by intrinsic sources
	// and externally tainted callees. Deterministic because infos is
	// position-sorted and each function's taint reason is its first
	// cause in that order.
	tainted := map[*types.Func]string{}
	for changed := true; changed; {
		changed = false
		for _, fi := range infos {
			if _, done := tainted[fi.obj]; done {
				continue
			}
			if len(fi.sources) > 0 {
				tainted[fi.obj] = fi.sources[0].reason
				changed = true
				continue
			}
			for _, e := range fi.calls {
				reason, ok := tainted[e.callee]
				if !ok {
					reason, ok = external[e.callee]
				}
				if ok {
					tainted[fi.obj] = chain(e.callee, reason)
					changed = true
					break
				}
			}
		}
	}

	for _, fi := range infos {
		if reason, ok := tainted[fi.obj]; ok {
			pass.ExportObjectFact(fi.obj, &Nondeterministic{Reason: reason})
		}
	}

	// Diagnostics: critical functions may neither contain a source nor
	// call anything tainted.
	for _, fi := range infos {
		if !critical(pass.Pkg.Path(), fi.obj) {
			continue
		}
		for _, s := range fi.sources {
			pass.Reportf(s.pos, "%s %s; this is a golden-checked path, so derive the value from the run's seed or fingerprint instead",
				funcDesc(fi.obj), s.reason)
		}
		for _, e := range fi.calls {
			reason, ok := tainted[e.callee]
			if !ok {
				reason, ok = external[e.callee]
			}
			if !ok {
				continue
			}
			pass.Reportf(e.pos, "%s calls %s, which is nondeterministic: %s",
				funcDesc(fi.obj), calleeName(e.callee), clip(reason))
		}
	}
	return nil
}

// collect gathers one function's intrinsic nondeterminism sources and
// static call edges. Function literals inside the body are attributed
// to the enclosing declaration — conservative, since the literal runs
// on some path reachable from it. Waived sites are dropped here, so a
// waiver both silences the diagnostic and stops taint propagating.
func collect(pass *analysis.Pass, obj *types.Func, body *ast.BlockStmt) *funcInfo {
	fi := &funcInfo{obj: obj}
	sortedAfter := sortCalls(pass, body)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			var id *ast.Ident
			switch fun := n.Fun.(type) {
			case *ast.Ident:
				id = fun
			case *ast.SelectorExpr:
				id = fun.Sel
			}
			if id == nil {
				return true
			}
			callee, ok := pass.TypesInfo.Uses[id].(*types.Func)
			if !ok || pass.Waived(n.Pos()) {
				return true
			}
			if reason, ok := intrinsic(callee); ok {
				fi.sources = append(fi.sources, source{n.Pos(), reason})
			} else if callee.Pkg() != nil {
				fi.calls = append(fi.calls, callEdge{n.Pos(), callee})
			}
		case *ast.SelectStmt:
			comm := 0
			for _, s := range n.Body.List {
				if cc, ok := s.(*ast.CommClause); ok && cc.Comm != nil {
					comm++
				}
			}
			if comm >= 2 && !pass.Waived(n.Pos()) {
				fi.sources = append(fi.sources, source{n.Pos(),
					fmt.Sprintf("selects between %d channel operations, so the taken branch depends on goroutine completion order", comm)})
			}
		case *ast.RangeStmt:
			if t := pass.TypesInfo.TypeOf(n.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap && !pass.Waived(n.Pos()) {
					if name, leak := rangeLeaksOrder(pass, n, sortedAfter); leak {
						fi.sources = append(fi.sources, source{n.For,
							fmt.Sprintf("iterates a map appending to %s with no later sort, leaking randomized map order", name)})
					}
				}
			}
		}
		return true
	})
	return fi
}

// sortCalls indexes sort/slices sort calls in the body by the object
// of their first argument (the collect-then-sort exemption, shared
// with maporder's rule).
func sortCalls(pass *analysis.Pass, body *ast.BlockStmt) map[types.Object][]ast.Node {
	out := map[types.Object][]ast.Node{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		pkg := fn.Pkg().Path()
		if pkg != "sort" && pkg != "slices" {
			return true
		}
		if obj := rootObj(pass, call.Args[0]); obj != nil {
			out[obj] = append(out[obj], call)
		}
		return true
	})
	return out
}

// rangeLeaksOrder reports whether a map range appends to a variable
// declared outside the loop that is never sorted afterwards.
func rangeLeaksOrder(pass *analysis.Pass, rng *ast.RangeStmt, sortedAfter map[types.Object][]ast.Node) (string, bool) {
	var name string
	leak := false
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || leak {
			return !leak
		}
		fun, ok := call.Fun.(*ast.Ident)
		if !ok || fun.Name != "append" || len(call.Args) == 0 {
			return true
		}
		if _, isBuiltin := pass.TypesInfo.Uses[fun].(*types.Builtin); !isBuiltin {
			return true
		}
		obj := rootObj(pass, call.Args[0])
		if obj == nil || (obj.Pos() >= rng.Pos() && obj.Pos() < rng.End()) {
			return true
		}
		for _, s := range sortedAfter[obj] {
			if s.Pos() > rng.End() {
				return true
			}
		}
		name, leak = obj.Name(), true
		return false
	})
	return name, leak
}

// rootObj unwraps conversions/parens/single-arg calls to the object
// of the underlying identifier, if any.
func rootObj(pass *analysis.Pass, e ast.Expr) types.Object {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return pass.TypesInfo.Uses[v]
		case *ast.CallExpr:
			if len(v.Args) != 1 {
				return nil
			}
			e = v.Args[0]
		case *ast.ParenExpr:
			e = v.X
		case *ast.UnaryExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// intrinsic reports whether callee is itself a nondeterminism source.
func intrinsic(callee *types.Func) (string, bool) {
	pkg := callee.Pkg()
	if pkg == nil {
		return "", false
	}
	if sig, ok := callee.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return "", false
	}
	switch pkg.Path() {
	case "time":
		if timeFuncs[callee.Name()] {
			return "reads the wall clock via time." + callee.Name(), true
		}
	case "math/rand", "math/rand/v2":
		// Exported non-constructor entry points draw from the
		// process-wide auto-seeded stream. Constructors (New,
		// NewSource, NewPCG, ...) and package internals are not draws.
		if token.IsExported(callee.Name()) && !strings.HasPrefix(callee.Name(), "New") {
			return "draws from the shared " + pkg.Path() + " stream via rand." + callee.Name(), true
		}
	}
	return "", false
}

// critical reports whether fn's results must be deterministic: the
// root package, the render-and-verify subtrees, or any fingerprint
// method anywhere (fingerprints key every FPCache and TraceCache, the
// sx4d response cache among them, so a wobbling fingerprint silently
// forks cache entries).
func critical(pkgPath string, fn *types.Func) bool {
	if strings.EqualFold(fn.Name(), "fingerprint") {
		return true
	}
	if pkgPath == "sx4bench" {
		return true
	}
	for _, p := range criticalPrefixes {
		if pkgPath == p || strings.HasPrefix(pkgPath, p+"/") {
			return true
		}
	}
	return false
}

// chain extends a taint reason one call deeper, clipped to maxReason.
func chain(callee *types.Func, reason string) string {
	return clip(fmt.Sprintf("calls %s, which is nondeterministic: %s", calleeName(callee), reason))
}

func clip(s string) string {
	if len(s) > maxReason {
		return s[:maxReason-3] + "..."
	}
	return s
}

func calleeName(fn *types.Func) string {
	base := ""
	if fn.Pkg() != nil {
		base = analysis.PathBase(fn.Pkg().Path()) + "."
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return base + named.Obj().Name() + "." + fn.Name()
		}
	}
	return base + fn.Name()
}

func funcDesc(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return "method " + calleeName(fn)
	}
	return "function " + fn.Name()
}
