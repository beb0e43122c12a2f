package check

import (
	"testing"

	"sx4bench"
)

// TestGoldenArtifacts is the regression gate: every paper table and
// figure must render byte-identically to its committed golden. A
// failure here means a model or formatting change moved an artifact —
// if intentional, regenerate with `make goldens` (or
// `go run ./cmd/goldens -update`) and review the git diff.
func TestGoldenArtifacts(t *testing.T) {
	mismatches, err := VerifyIDs("testdata/goldens", Artifacts())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range mismatches {
		t.Errorf("%s\n(run `make goldens` if this change is intentional)", m)
	}
}

// TestGoldenRenderDeterministic renders every artifact on two fresh
// machines and once more on the warmed first machine; all three must be
// byte-identical. This pins down that the artifact pipeline has no
// hidden dependence on wall clock, map iteration order, goroutine
// scheduling, or the timing cache's warm/cold state.
func TestGoldenRenderDeterministic(t *testing.T) {
	m1 := sx4bench.Benchmarked()
	m2 := sx4bench.Benchmarked()
	for _, id := range Artifacts() {
		a, err := Render(m1, id)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Render(m2, id)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("%s: differs across fresh machines at %s", id, FirstDiff(a, b))
		}
		warm, err := Render(m1, id)
		if err != nil {
			t.Fatal(err)
		}
		if a != warm {
			t.Errorf("%s: warm re-render differs at %s", id, FirstDiff(a, warm))
		}
		if a == "" {
			t.Errorf("%s: rendered empty", id)
		}
	}
}

// TestArtifactsCoverPaperTablesAndFigures guards the artifact list
// itself: all seven paper tables and all four reproduced figures must
// stay pinned, and every listed id must be a real experiment.
func TestArtifactsCoverPaperTablesAndFigures(t *testing.T) {
	have := map[string]bool{}
	for _, id := range Artifacts() {
		have[id] = true
	}
	for _, id := range []string{
		"table1", "table2", "table3", "table4", "table5", "table6", "table7",
		"fig5", "fig6", "fig7", "fig8",
	} {
		if !have[id] {
			t.Errorf("paper artifact %s missing from Artifacts()", id)
		}
	}
	known := map[string]bool{}
	for _, id := range sx4bench.Experiments() {
		known[id] = true
	}
	for _, id := range Artifacts() {
		if !known[id] {
			t.Errorf("Artifacts() lists %s, which is not an experiment id", id)
		}
	}
}

func TestRenderUnknownArtifact(t *testing.T) {
	if _, err := Render(sx4bench.Benchmarked(), "nosuch"); err == nil {
		t.Error("Render accepted an unknown artifact id")
	}
}
