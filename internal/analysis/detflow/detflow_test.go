package detflow

import (
	"testing"

	"sx4bench/internal/analysis"
	"sx4bench/internal/analysis/analysistest"
)

func TestFixtures(t *testing.T) {
	analysistest.Run(t, "testdata", Analyzer,
		"sx4bench/internal/fakeleaf",
		"sx4bench/internal/core/fakerender",
		"sx4bench/internal/fakebackoff",
	)
}

// TestFactExport pins the fact surface itself: which objects of the
// leaf fixture carry a Nondeterministic fact after one run.
func TestFactExport(t *testing.T) {
	pkgs, err := analysis.LoadFixtures("testdata", "sx4bench/internal/fakeleaf")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	store := analysis.NewFactStore()
	if _, err := analysis.RunFacts(pkgs, []*analysis.Analyzer{Analyzer}, store); err != nil {
		t.Fatalf("running detflow: %v", err)
	}

	got := map[string]bool{}
	for _, r := range store.Records() {
		if r.Analyzer != "detflow" || r.Pkg != "sx4bench/internal/fakeleaf" {
			t.Errorf("unexpected fact owner: analyzer=%q pkg=%q", r.Analyzer, r.Pkg)
			continue
		}
		if _, ok := r.Fact.(*Nondeterministic); !ok {
			t.Errorf("fact on %s has type %T, want *Nondeterministic", r.Obj, r.Fact)
		}
		got[r.Obj] = true
	}
	for _, obj := range []string{"F.WallSeed", "F.Jitter", "F.Pick", "F.Keys", "F.Indirect", "M.Thing.Fingerprint"} {
		if !got[obj] {
			t.Errorf("no Nondeterministic fact exported for %s", obj)
		}
	}
	for _, obj := range []string{"F.SortedKeys", "F.Total"} {
		if got[obj] {
			t.Errorf("clean function %s carries a Nondeterministic fact", obj)
		}
	}
}
