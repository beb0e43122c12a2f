package analysis

import (
	"fmt"
	"sort"
	"strings"
)

// Run applies every analyzer to every package and returns the
// surviving diagnostics in (file, line, column, analyzer) order.
// Packages are visited in topological import order, so a fact exported
// from a leaf package is visible when its importers are analyzed.
// A diagnostic is suppressed by a comment
//
//	//sx4lint:ignore <analyzer> <reason>
//
// on the reported line or the line immediately above it; the reason is
// mandatory so every waiver documents itself.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	return RunFacts(pkgs, analyzers, NewFactStore())
}

// RunFacts is Run with a caller-supplied fact store, into which the
// facts the analyzers export accumulate, so a test can inspect them.
func RunFacts(pkgs []*Package, analyzers []*Analyzer, facts *FactStore) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range topoOrder(pkgs) {
		ignores := ignoreLines(pkg)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Syntax,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				facts:     facts,
				ignores:   ignores,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %v", a.Name, pkg.ImportPath, err)
			}
			for _, d := range pass.diagnostics {
				key := lineKey{d.Position.Filename, d.Position.Line, a.Name}
				up := lineKey{d.Position.Filename, d.Position.Line - 1, a.Name}
				if ignores[key] || ignores[up] {
					continue
				}
				diags = append(diags, d)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Position.Column != b.Position.Column {
			return a.Position.Column < b.Position.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

type lineKey struct {
	file     string
	line     int
	analyzer string
}

// topoOrder sorts the packages so every package follows the loaded
// packages it imports — the order facts must flow in. Ties (and the
// traversal itself) break on import path, so the order is
// deterministic regardless of the input order. Only edges between
// loaded packages count; imports resolved from export data or
// placeholders carry no facts of their own to wait for.
func topoOrder(pkgs []*Package) []*Package {
	byPath := make(map[string]*Package, len(pkgs))
	paths := make([]string, 0, len(pkgs))
	for _, p := range pkgs {
		byPath[p.ImportPath] = p
		paths = append(paths, p.ImportPath)
	}
	sort.Strings(paths)
	out := make([]*Package, 0, len(pkgs))
	visited := map[string]bool{}
	var visit func(path string)
	visit = func(path string) {
		if visited[path] {
			return
		}
		visited[path] = true
		pkg := byPath[path]
		if pkg.Types != nil {
			var deps []string
			for _, imp := range pkg.Types.Imports() {
				if _, ok := byPath[imp.Path()]; ok {
					deps = append(deps, imp.Path())
				}
			}
			sort.Strings(deps)
			for _, d := range deps {
				visit(d)
			}
		}
		out = append(out, pkg)
	}
	for _, p := range paths {
		visit(p)
	}
	return out
}

// ignoreLines indexes every sx4lint:ignore comment by (file, line,
// analyzer).
func ignoreLines(pkg *Package) map[lineKey]bool {
	out := map[lineKey]bool{}
	for _, f := range pkg.Syntax {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(strings.TrimPrefix(c.Text, "//"), "/*")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "sx4lint:ignore") {
					continue
				}
				fields := strings.Fields(strings.TrimPrefix(text, "sx4lint:ignore"))
				if len(fields) < 2 {
					// No analyzer name or no reason: not a valid
					// waiver, so it suppresses nothing.
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				out[lineKey{pos.Filename, pos.Line, fields[0]}] = true
			}
		}
	}
	return out
}
