// Package floatorder flags order-dependent float reductions inside
// parallel callbacks. Float addition and multiplication are not
// associative, so a shared accumulator mutated from a sched.ForEach or
// Map callback (or a sched.Task Run function) folds in completion
// order and produces a different low-order result every run —
// precisely the kind of wobble the 21 byte-identical goldens exist to
// catch, except it only surfaces under multi-worker timing. The
// sanctioned idiom is per-index computation with a serial index-order
// fold: sched.Map followed by a plain loop. Per-index writes
// (out[i] = v) are fine and are not flagged; integer accumulators are
// a lockshare concern, not a reproducibility-of-rounding one, and are
// ignored here.
package floatorder

import (
	"go/ast"
	"go/token"
	"go/types"

	"sx4bench/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "floatorder",
	Doc: "flag shared float accumulators (+=, *=, x = x + ...) mutated inside sched parallel callbacks; " +
		"reductions must use fixed-order folds (sched.Map plus a serial loop) to keep goldens bit-identical",
	Run: run,
}

const schedPath = "sx4bench/internal/core/sched"

// parallelEntry names the sched functions whose callback arguments run
// concurrently.
var parallelEntry = map[string]bool{
	"ForEach": true, "Map": true,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
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
				fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
				if !ok || fn.Pkg() == nil || fn.Pkg().Path() != schedPath || !parallelEntry[fn.Name()] {
					return true
				}
				for _, arg := range n.Args {
					if lit, ok := arg.(*ast.FuncLit); ok {
						checkLit(pass, lit, "sched."+fn.Name()+" callback")
					}
				}
			case *ast.CompositeLit:
				t := pass.TypesInfo.TypeOf(n)
				named, ok := t.(*types.Named)
				if !ok || named.Obj().Pkg() == nil ||
					named.Obj().Pkg().Path() != schedPath || named.Obj().Name() != "Task" {
					return true
				}
				for i, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Run" {
							if lit, ok := kv.Value.(*ast.FuncLit); ok {
								checkLit(pass, lit, "sched.Task Run function")
							}
						}
					} else if i == 1 {
						// Positional literal: Task{id, run}.
						if lit, ok := elt.(*ast.FuncLit); ok {
							checkLit(pass, lit, "sched.Task Run function")
						}
					}
				}
			}
			return true
		})
	}
	return nil
}

// checkLit scans one parallel callback for order-dependent float
// mutations of variables that outlive the callback.
func checkLit(pass *analysis.Pass, lit *ast.FuncLit, where string) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			switch n.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				for _, lhs := range n.Lhs {
					flagSharedFloat(pass, lit, lhs, n.Pos(), n.Tok.String(), where)
				}
			case token.ASSIGN:
				for i, lhs := range n.Lhs {
					if i < len(n.Rhs) && mentions(n.Rhs[i], lhs) {
						flagSharedFloat(pass, lit, lhs, n.Pos(), "self-referential =", where)
					}
				}
			}
		case *ast.IncDecStmt:
			flagSharedFloat(pass, lit, n.X, n.Pos(), n.Tok.String(), where)
		}
		return true
	})
}

// flagSharedFloat reports lhs if it is a float lvalue rooted at a
// variable declared outside the callback.
func flagSharedFloat(pass *analysis.Pass, lit *ast.FuncLit, lhs ast.Expr, pos token.Pos, op, where string) {
	t := pass.TypesInfo.TypeOf(lhs)
	if t == nil {
		return
	}
	basic, ok := t.Underlying().(*types.Basic)
	if !ok || basic.Info()&types.IsFloat == 0 {
		return
	}
	root := rootIdentObj(pass, lhs)
	if root == nil {
		return
	}
	if root.Pos() >= lit.Pos() && root.Pos() <= lit.End() {
		return // callback-local accumulator: folded before escaping
	}
	if pass.Waived(pos) {
		return
	}
	pass.Reportf(pos,
		"order-dependent float reduction: %q on %s inside a %s accumulates in goroutine completion order, and float ops are not associative; compute per-index values and fold serially (sched.Map plus a serial loop)",
		op, root.Name(), where)
}

// mentions reports whether sub (by expression string) occurs inside e
// — the `sum = sum + x` form of a compound assignment.
func mentions(e, sub ast.Expr) bool {
	want := types.ExprString(sub)
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if x, ok := n.(ast.Expr); ok && types.ExprString(x) == want {
			found = true
			return false
		}
		return true
	})
	return found
}

// rootIdentObj returns the object of the leftmost identifier of a
// selector/index/star chain.
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
