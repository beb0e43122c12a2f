// Package lockshare checks the shared-state discipline of the
// concurrent serving stack: internal/serve (daemon, response cache,
// single-flight), internal/fleet (multi-node Monte Carlo) and
// internal/target (the sharded fingerprint caches). Those packages run
// real goroutines against shared structs, where the cache shards and
// the content-addressed response cache are only sound if every shared
// write happens under the guard that readers take.
//
// Four rules, all lexical and per-function (a lint, not a prover —
// borderline cases carry //sx4lint:ignore lockshare <reason>):
//
//  1. Lock-containing values must not be copied: value receivers,
//     value parameters, plain assignments and range-clause copies of
//     a type containing sync.Mutex/RWMutex each silently fork the
//     lock from the state it guards.
//  2. A function that calls X.Lock() without a deferred unlock must
//     not return before the matching X.Unlock() — the early-error
//     path that leaves the daemon wedged.
//  3. In a struct that carries its own mutex field, sibling fields
//     are written only after the mutex is locked in the same
//     function (writes in constructors, in "...Locked" helper methods
//     documented to run under the caller's lock, and to sync/atomic
//     fields are exempt). The same applies to package-level variables
//     in packages that guard them with a package-level mutex.
//  4. A `go func() { ... }` literal must not write variables captured
//     from the enclosing function without locking first; per-index
//     writes to distinct slice elements (the sched worker idiom) are
//     the one sanctioned exception.
package lockshare

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"sx4bench/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "lockshare",
	Doc: "shared-state checks for serve/fleet/target: no copied locks, no return while locked, " +
		"mutex-sibling fields and package-level state written only under the guard, no unguarded captured writes in goroutines",
	Run: run,
}

// scopePrefixes are the goroutine-running packages the rules apply to.
var scopePrefixes = []string{
	"sx4bench/internal/serve",
	"sx4bench/internal/fleet",
	"sx4bench/internal/target",
}

func inScope(pkgPath string) bool {
	for _, p := range scopePrefixes {
		if pkgPath == p || strings.HasPrefix(pkgPath, p+"/") {
			return true
		}
	}
	return false
}

func run(pass *analysis.Pass) error {
	if !inScope(pass.Pkg.Path()) {
		return nil
	}
	pkgMutexes := packageMutexes(pass)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil {
				continue
			}
			checkCopies(pass, decl)
			checkLockRelease(pass, decl)
			checkGuardedWrites(pass, decl, pkgMutexes)
			checkGoroutineWrites(pass, decl)
		}
	}
	return nil
}

// ---- rule 1: copied locks ----

func checkCopies(pass *analysis.Pass, decl *ast.FuncDecl) {
	if decl.Recv != nil && len(decl.Recv.List) == 1 {
		recv := decl.Recv.List[0]
		if t := pass.TypesInfo.TypeOf(recv.Type); t != nil && containsLock(t) {
			pass.Reportf(recv.Type.Pos(),
				"method %s has a value receiver of lock-containing type %s: each call copies the lock away from the state it guards; use a pointer receiver",
				decl.Name.Name, types.TypeString(t, types.RelativeTo(pass.Pkg)))
		}
	}
	for _, field := range decl.Type.Params.List {
		if t := pass.TypesInfo.TypeOf(field.Type); t != nil && containsLock(t) {
			pass.Reportf(field.Type.Pos(),
				"parameter of lock-containing type %s is passed by value, copying the lock; pass a pointer",
				types.TypeString(t, types.RelativeTo(pass.Pkg)))
		}
	}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i >= len(n.Lhs) {
					break
				}
				if !copiesValue(rhs) {
					continue
				}
				if t := pass.TypesInfo.TypeOf(rhs); t != nil && containsLock(t) {
					pass.Reportf(n.Pos(), "assignment copies lock-containing value of type %s; keep a pointer instead",
						types.TypeString(t, types.RelativeTo(pass.Pkg)))
				}
			}
		case *ast.RangeStmt:
			if n.Value == nil {
				return true
			}
			if t := pass.TypesInfo.TypeOf(n.Value); t != nil && containsLock(t) {
				pass.Reportf(n.Value.Pos(),
					"range clause copies lock-containing elements of type %s; range over indices and take pointers",
					types.TypeString(t, types.RelativeTo(pass.Pkg)))
			}
		}
		return true
	})
}

// copiesValue reports whether an expression denotes an existing value
// being copied (as opposed to a fresh composite literal, address, or
// call result).
func copiesValue(e ast.Expr) bool {
	switch v := e.(type) {
	case *ast.Ident:
		return true
	case *ast.SelectorExpr:
		return true
	case *ast.IndexExpr:
		return true
	case *ast.StarExpr:
		return true
	case *ast.ParenExpr:
		return copiesValue(v.X)
	}
	return false
}

// containsLock reports whether t (or any struct field of it,
// transitively, not following pointers) is a sync.Mutex or RWMutex.
func containsLock(t types.Type) bool {
	return containsLockRec(t, map[types.Type]bool{})
}

func containsLockRec(t types.Type, seen map[types.Type]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	seen[t] = true
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "sync" && (obj.Name() == "Mutex" || obj.Name() == "RWMutex") {
			return true
		}
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsLockRec(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return containsLockRec(u.Elem(), seen)
	}
	return false
}

// ---- rule 2: return while locked ----

func checkLockRelease(pass *analysis.Pass, decl *ast.FuncDecl) {
	type site struct {
		expr string // ExprString of the locked value, e.g. "s.mu"
		read bool   // RLock vs Lock
		pos  token.Pos
	}
	var locks []site
	deferred := map[string]bool{} // "s.mu"+kind with a deferred unlock
	unlocks := map[string][]token.Pos{}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			if x, name, ok := mutexCall(pass, n.Call); ok && (name == "Unlock" || name == "RUnlock") {
				deferred[types.ExprString(x)+"/"+name] = true
			}
		case *ast.CallExpr:
			if x, name, ok := mutexCall(pass, n); ok {
				key := types.ExprString(x)
				switch name {
				case "Lock":
					locks = append(locks, site{key, false, n.Pos()})
				case "RLock":
					locks = append(locks, site{key, true, n.Pos()})
				case "Unlock":
					unlocks[key+"/Unlock"] = append(unlocks[key+"/Unlock"], n.Pos())
				case "RUnlock":
					unlocks[key+"/RUnlock"] = append(unlocks[key+"/RUnlock"], n.Pos())
				}
			}
		}
		return true
	})
	if len(locks) == 0 {
		return
	}
	var returns []token.Pos
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			// A literal's returns exit the literal, not this function.
			_ = fl
			return false
		}
		if r, ok := n.(*ast.ReturnStmt); ok {
			returns = append(returns, r.Pos())
		}
		return true
	})
	for _, l := range locks {
		kind := "Unlock"
		if l.read {
			kind = "RUnlock"
		}
		if deferred[l.expr+"/"+kind] {
			continue
		}
		// The lock is released manually: every return after the Lock
		// must be preceded by a matching unlock.
		for _, r := range returns {
			if r <= l.pos {
				continue
			}
			released := false
			for _, u := range unlocks[l.expr+"/"+kind] {
				if u > l.pos && u < r {
					released = true
					break
				}
			}
			if !released {
				pass.Reportf(r, "return with %s still held: %s.%s at %s has no deferred unlock and no %s before this return",
					l.expr, l.expr, map[bool]string{false: "Lock", true: "RLock"}[l.read],
					pass.Fset.Position(l.pos), kind)
			}
		}
	}
}

// mutexCall matches a call expr of the form X.<method>() where X is a
// sync.Mutex/RWMutex (possibly a field), returning X and the method.
func mutexCall(pass *analysis.Pass, call *ast.CallExpr) (ast.Expr, string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, "", false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, "", false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
		return sel.X, sel.Sel.Name, true
	}
	return nil, "", false
}

// ---- rule 3: writes under the guard ----

// packageMutexes returns the package-level sync.Mutex/RWMutex
// variables of this package.
func packageMutexes(pass *analysis.Pass) map[types.Object]bool {
	out := map[types.Object]bool{}
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		if v, ok := scope.Lookup(name).(*types.Var); ok && containsLock(v.Type()) {
			out[v] = true
		}
	}
	return out
}

func checkGuardedWrites(pass *analysis.Pass, decl *ast.FuncDecl, pkgMutexes map[types.Object]bool) {
	if strings.HasSuffix(decl.Name.Name, "Locked") || decl.Name.Name == "init" {
		return
	}
	body := decl.Body

	// lockedBy[obj] holds positions of X.Lock()/X.RLock() calls whose
	// root identifier resolves to obj.
	lockedBy := map[types.Object][]token.Pos{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if x, name, ok := mutexCall(pass, call); ok && (name == "Lock" || name == "RLock") {
			if obj := rootIdentObj(pass, x); obj != nil {
				lockedBy[obj] = append(lockedBy[obj], call.Pos())
			}
		}
		return true
	})
	heldBefore := func(obj types.Object, pos token.Pos) bool {
		for _, l := range lockedBy[obj] {
			if l < pos {
				return true
			}
		}
		return false
	}
	anyPkgMutexBefore := func(pos token.Pos) bool {
		for mu := range pkgMutexes {
			if heldBefore(mu, pos) {
				return true
			}
		}
		return false
	}

	checkTarget := func(lhs ast.Expr, pos token.Pos) {
		// Unwrap index expressions: s.m[k] = v writes through field m.
		for {
			idx, ok := lhs.(*ast.IndexExpr)
			if !ok {
				break
			}
			lhs = idx.X
		}
		switch tgt := lhs.(type) {
		case *ast.SelectorExpr:
			field, ok := pass.TypesInfo.Uses[tgt.Sel].(*types.Var)
			if !ok || !field.IsField() {
				return
			}
			base := pass.TypesInfo.TypeOf(tgt.X)
			if base == nil {
				return
			}
			if p, ok := base.(*types.Pointer); ok {
				base = p.Elem()
			}
			named, ok := base.(*types.Named)
			if !ok || named.Obj().Pkg() != pass.Pkg {
				return
			}
			guard := structGuard(named)
			if guard == "" || field.Name() == guard {
				return
			}
			if isAtomicType(field.Type()) || containsLock(field.Type()) {
				return
			}
			root := rootIdentObj(pass, tgt.X)
			if root == nil {
				return
			}
			// Freshly constructed in this function: not yet shared.
			if root.Pos() >= body.Pos() && root.Pos() <= body.End() {
				return
			}
			if heldBefore(root, pos) || pass.Waived(pos) {
				return
			}
			pass.Reportf(pos,
				"write to %s.%s without locking %s.%s first: %s carries its own mutex, so sibling fields are shared state; lock, or rename the helper with a Locked suffix",
				named.Obj().Name(), field.Name(), rootName(tgt.X), guard, named.Obj().Name())
		case *ast.Ident:
			v, ok := pass.TypesInfo.Uses[tgt].(*types.Var)
			if !ok || v.Pkg() != pass.Pkg || v.Parent() != pass.Pkg.Scope() {
				return
			}
			if len(pkgMutexes) == 0 || pkgMutexes[v] || isAtomicType(v.Type()) || containsLock(v.Type()) {
				return
			}
			if anyPkgMutexBefore(pos) || pass.Waived(pos) {
				return
			}
			pass.Reportf(pos,
				"write to package-level %s without holding the package mutex: this package guards its globals with a package-level lock, so every write needs it",
				v.Name())
		}
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				checkTarget(lhs, n.Pos())
			}
		case *ast.IncDecStmt:
			checkTarget(n.X, n.Pos())
		}
		return true
	})
}

// structGuard returns the name of named's direct sync.Mutex/RWMutex
// field, or "" if it has none (struct not self-guarded).
func structGuard(named *types.Named) string {
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return ""
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if n, ok := f.Type().(*types.Named); ok {
			obj := n.Obj()
			if obj.Pkg() != nil && obj.Pkg().Path() == "sync" && (obj.Name() == "Mutex" || obj.Name() == "RWMutex") {
				return f.Name()
			}
		}
	}
	return ""
}

func isAtomicType(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "sync/atomic"
}

// ---- rule 4: unguarded captured writes in goroutines ----

func checkGoroutineWrites(pass *analysis.Pass, decl *ast.FuncDecl) {
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		lit, ok := g.Call.Fun.(*ast.FuncLit)
		if !ok {
			return true
		}
		var lockPositions []token.Pos
		ast.Inspect(lit.Body, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok {
				if _, name, ok := mutexCall(pass, call); ok && (name == "Lock" || name == "RLock") {
					lockPositions = append(lockPositions, call.Pos())
				}
			}
			return true
		})
		lockedBefore := func(pos token.Pos) bool {
			for _, l := range lockPositions {
				if l < pos {
					return true
				}
			}
			return false
		}
		checkWrite := func(lhs ast.Expr, pos token.Pos) {
			// errs[i] = ... with a slice: the sched per-index idiom,
			// each goroutine owns a distinct element.
			if idx, ok := lhs.(*ast.IndexExpr); ok {
				if t := pass.TypesInfo.TypeOf(idx.X); t != nil {
					if _, isSlice := t.Underlying().(*types.Slice); isSlice {
						return
					}
					if _, isMap := t.Underlying().(*types.Map); isMap {
						root := rootIdentObj(pass, idx.X)
						if root != nil && capturedFrom(root, lit) && !lockedBefore(pos) && !pass.Waived(pos) {
							pass.Reportf(pos,
								"goroutine writes captured map %s without locking: concurrent map writes crash, and even serialized ones race with readers",
								rootName(idx.X))
						}
						return
					}
				}
				lhs = idx.X
			}
			root := rootIdentObj(pass, lhs)
			if root == nil || !capturedFrom(root, lit) {
				return
			}
			if lockedBefore(pos) || pass.Waived(pos) {
				return
			}
			pass.Reportf(pos,
				"goroutine writes captured variable %s without locking: the enclosing function (and sibling goroutines) race on it",
				root.Name())
		}
		ast.Inspect(lit.Body, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.AssignStmt:
				if m.Tok == token.DEFINE {
					return true
				}
				for _, lhs := range m.Lhs {
					checkWrite(lhs, m.Pos())
				}
			case *ast.IncDecStmt:
				checkWrite(m.X, m.Pos())
			}
			return true
		})
		return true
	})
}

// capturedFrom reports whether obj is declared outside the literal —
// a free variable the goroutine shares with its parent.
func capturedFrom(obj types.Object, lit *ast.FuncLit) bool {
	return obj.Pos() < lit.Pos() || obj.Pos() > lit.End()
}

// rootIdentObj returns the object of the leftmost identifier of a
// selector/index/paren chain ("s" in s.mu, s.m[k]).
func rootIdentObj(pass *analysis.Pass, e ast.Expr) types.Object {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return pass.TypesInfo.Uses[v]
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		default:
			return nil
		}
	}
}

func rootName(e ast.Expr) string {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v.Name
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		default:
			return "it"
		}
	}
}
