package analysis_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sx4bench/internal/analysis"
	"sx4bench/internal/analysis/sx4lint"
)

// TestLoadFactsCrossPackage runs the suite over a real two-package
// module the way sx4lint does: Load type-checks both packages from
// source but resolves the consumer's import of the leaf through export
// data, so the leaf's detflow fact reaches the consumer only through
// the (package path, object path) key.
func TestLoadFactsCrossPackage(t *testing.T) {
	dir := t.TempDir()
	write := func(rel, src string) {
		path := filepath.Join(dir, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module sx4bench\n\ngo 1.24\n")
	write("internal/fakeleafdet/leaf.go", `package fakeleafdet

import "time"

func WallSeed() int64 { return time.Now().UnixNano() }
`)
	write("internal/core/fakeconsumer/consumer.go", `package fakeconsumer

import "sx4bench/internal/fakeleafdet"

func Render() int64 { return fakeleafdet.WallSeed() }
`)

	pkgs, err := analysis.Load(dir, "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	diags, err := analysis.Run(pkgs, sx4lint.Analyzers())
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	var hits []analysis.Diagnostic
	for _, d := range diags {
		if d.Analyzer == "detflow" {
			hits = append(hits, d)
		}
	}
	if len(hits) != 1 || !strings.HasSuffix(hits[0].Position.Filename, "consumer.go") ||
		!strings.Contains(hits[0].Message, "fakeleafdet.WallSeed") || !strings.Contains(hits[0].Message, "wall clock") {
		t.Fatalf("want one detflow diagnostic in consumer.go naming fakeleafdet.WallSeed's wall-clock taint, got %v (all: %v)", hits, diags)
	}
}
