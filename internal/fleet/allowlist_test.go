package fleet

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestFleetImportAllowlist pins the package's layering from the inside:
// the fleet engine may consume the scheduler model (superux), fault
// plans, the target registry's spec surface and core utilities — never
// a concrete machine model (internal/machine) or the SX-4 engine
// (internal/sx4). The layering analyzer enforces the same rule
// repo-wide; this test makes the full allowlist explicit so an
// accidental new dependency fails loudly here first.
func TestFleetImportAllowlist(t *testing.T) {
	allowed := map[string]bool{
		"sx4bench/internal/core":       true,
		"sx4bench/internal/core/sched": true,
		"sx4bench/internal/fault":      true,
		"sx4bench/internal/splitmix":   true,
		"sx4bench/internal/superux":    true,
		"sx4bench/internal/target":     true,
	}
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(".", name), nil, parser.ImportsOnly)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			switch {
			case strings.HasPrefix(path, "sx4bench/"):
				if !allowed[path] {
					t.Errorf("%s imports %q, outside the fleet allowlist — the capacity layer consumes spec sheets, not engines", name, path)
				}
			case strings.Contains(path, "."):
				t.Errorf("%s imports %q: external dependencies are banned", name, path)
			}
		}
	}
}
