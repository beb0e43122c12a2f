package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// A Package is one loaded, type-checked package ready for analysis.
type Package struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Fset       *token.FileSet
	Syntax     []*ast.File
	Types      *types.Package
	TypesInfo  *types.Info
}

// listPkg is the subset of `go list -json` output the loader needs.
type listPkg struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Error      *struct{ Err string }
}

// Load lists patterns in dir with the go command, compiles their
// dependency export data, and type-checks each matched package from
// source. Test files are not loaded (see Pass.Files).
func Load(dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{"list", "-e", "-export", "-json", "-deps"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list: %v\n%s", err, stderr.String())
	}
	var roots []*listPkg
	exports := map[string]string{}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listPkg)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("analysis: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && p.Name != "" {
			roots = append(roots, p)
		}
	}

	fset := token.NewFileSet()
	imp := exportImporter(fset, exports)
	var pkgs []*Package
	for _, p := range roots {
		pkg, err := typecheck(fset, imp, p.ImportPath, p.Dir, p.GoFiles, true)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// exportImporter resolves import paths through compiler export data
// listed in exports; paths outside the map resolve to empty
// placeholder packages (fixture mode references only names it
// resolves, and the strict repo load always has a complete map).
func exportImporter(fset *token.FileSet, exports map[string]string) *fallbackImporter {
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})
	return &fallbackImporter{
		gc:      gc,
		exports: exports,
		source:  map[string]*types.Package{},
		fakes:   map[string]*types.Package{},
	}
}

type fallbackImporter struct {
	gc      types.Importer
	exports map[string]string
	// source holds packages already type-checked from source in this
	// load group (fixture packages importing earlier fixture packages);
	// it wins over export data so facts keyed on the source-checked
	// objects line up with what importers resolve.
	source map[string]*types.Package
	fakes  map[string]*types.Package
}

func (fi *fallbackImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := fi.source[path]; ok {
		return p, nil
	}
	if _, ok := fi.exports[path]; ok {
		return fi.gc.Import(path)
	}
	if p, ok := fi.fakes[path]; ok {
		return p, nil
	}
	p := types.NewPackage(path, PathBase(path))
	p.MarkComplete()
	fi.fakes[path] = p
	return p, nil
}

// typecheck parses files and type-checks them as one package. When
// strict, the first type error aborts; fixture packages import
// placeholder packages and tolerate the resulting reference errors.
func typecheck(fset *token.FileSet, imp types.Importer, importPath, dir string, files []string, strict bool) (*Package, error) {
	pkg := &Package{ImportPath: importPath, Dir: dir, Fset: fset}
	for _, name := range files {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(dir, name)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %v", err)
		}
		pkg.GoFiles = append(pkg.GoFiles, path)
		pkg.Syntax = append(pkg.Syntax, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	var firstErr error
	conf := types.Config{
		Importer: imp,
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	tpkg, _ := conf.Check(importPath, fset, pkg.Syntax, info)
	if strict && firstErr != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %v", importPath, firstErr)
	}
	pkg.Types = tpkg
	pkg.TypesInfo = info
	return pkg, nil
}

// LoadFixtures loads analysistest fixture packages from a
// GOPATH-shaped testdata tree: every .go file directly in
// testdata/src/<importPath>, type-checked as importPath, all into one
// shared FileSet in the given order. A later package may import an
// earlier one — the import resolves to the source-checked earlier
// package, the setup that lets fixture tests exercise cross-package
// fact flow. Other imports resolvable by the go command (the standard
// library, and real module packages when a fixture mimics one) are
// loaded from export data; anything else becomes an empty
// placeholder, so fixtures may import fictional paths as long as they
// only blank-import them.
func LoadFixtures(testdata string, importPaths ...string) ([]*Package, error) {
	fixture := map[string]bool{}
	for _, ip := range importPaths {
		fixture[ip] = true
	}

	files := make([][]string, len(importPaths))
	var imports []string
	seen := map[string]bool{}
	scanFset := token.NewFileSet()
	for i, ip := range importPaths {
		dir := filepath.Join(testdata, "src", filepath.FromSlash(ip))
		matches, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(matches) == 0 {
			return nil, fmt.Errorf("analysis: no fixture files in %s", dir)
		}
		for j, m := range matches {
			if abs, err := filepath.Abs(m); err == nil {
				matches[j] = abs
			}
		}
		files[i] = matches
		for _, m := range matches {
			f, err := parser.ParseFile(scanFset, m, nil, parser.ImportsOnly)
			if err != nil {
				return nil, fmt.Errorf("analysis: %v", err)
			}
			for _, spec := range f.Imports {
				path := strings.Trim(spec.Path.Value, `"`)
				if !seen[path] && !fixture[path] {
					seen[path] = true
					imports = append(imports, path)
				}
			}
		}
	}
	exports, err := stdExports(imports)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	imp := exportImporter(fset, exports)
	pkgs := make([]*Package, len(importPaths))
	for i, ip := range importPaths {
		dir := filepath.Join(testdata, "src", filepath.FromSlash(ip))
		pkg, err := typecheck(fset, imp, ip, dir, files[i], false)
		if err != nil {
			return nil, err
		}
		if pkg.Types != nil {
			imp.source[ip] = pkg.Types
		}
		pkgs[i] = pkg
	}
	return pkgs, nil
}

// stdExports runs `go list -export` for the given (stdlib) import
// paths and their dependencies, returning the export-data map. The
// fixture loader uses it to resolve real imports inside testdata
// packages.
func stdExports(paths []string) (map[string]string, error) {
	exports := map[string]string{}
	if len(paths) == 0 {
		return exports, nil
	}
	args := append([]string{"list", "-e", "-export", "-json", "-deps"}, paths...)
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list %s: %v\n%s", strings.Join(paths, " "), err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listPkg)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return exports, nil
}
