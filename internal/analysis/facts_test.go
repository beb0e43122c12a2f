package analysis

import (
	"go/types"
	"path/filepath"
	"testing"
)

type testFact struct{ Note string }

func (*testFact) AFact() {}

func TestObjectPath(t *testing.T) {
	pkgs, err := LoadFixtures(filepath.Join("detflow", "testdata"), "sx4bench/internal/fakeleaf")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	pkg := pkgs[0]
	scope := pkg.Types.Scope()

	cases := []struct {
		obj  types.Object
		want string
	}{
		{scope.Lookup("WallSeed"), "F.WallSeed"},
		{scope.Lookup("Thing"), "T.Thing"},
	}
	if thing, ok := scope.Lookup("Thing").(*types.TypeName); ok {
		named := thing.Type().(*types.Named)
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); m.Name() == "Fingerprint" {
				cases = append(cases, struct {
					obj  types.Object
					want string
				}{m, "M.Thing.Fingerprint"})
			}
		}
	}
	for _, c := range cases {
		got, ok := ObjectPath(c.obj)
		if !ok || got != c.want {
			t.Errorf("ObjectPath(%v) = %q, %v; want %q, true", c.obj, got, ok, c.want)
		}
	}

	if p, ok := ObjectPath(nil); ok {
		t.Errorf("ObjectPath(nil) = %q, true; want false", p)
	}
	// A local variable has no stable path an importer could name.
	inner := types.NewVar(0, pkg.Types, "local", types.Typ[types.Int])
	if p, ok := ObjectPath(inner); ok {
		t.Errorf("ObjectPath(local var) = %q, true; want false", p)
	}
}

func TestFactStoreRoundTrip(t *testing.T) {
	s := NewFactStore()
	s.put("det", "example.com/b", "M.T.Three", &testFact{Note: "three"})
	s.put("det", "example.com/a", "F.Two", &testFact{Note: "stale"})
	s.put("det", "example.com/a", "F.One", &testFact{Note: "one"})
	s.put("det", "example.com/a", "F.Two", &testFact{Note: "two"})

	if f, _ := s.get("det", "example.com/a", "F.Two", "testFact"); f == nil || f.(*testFact).Note != "two" {
		t.Fatalf("get(F.Two) = %#v; want the later export", f)
	}
	if _, ok := s.get("other", "example.com/a", "F.One", "testFact"); ok {
		t.Fatal("a fact leaked across analyzers")
	}

	recs := s.Records()
	if len(recs) != 3 {
		t.Fatalf("Records holds %d facts, want 3", len(recs))
	}
	// Records are sorted, so they do not depend on export order.
	if recs[0].Obj != "F.One" || recs[1].Obj != "F.Two" || recs[2].Obj != "M.T.Three" {
		t.Fatalf("record order %q %q %q not sorted", recs[0].Obj, recs[1].Obj, recs[2].Obj)
	}
	if f, ok := recs[0].Fact.(*testFact); !ok || f.Note != "one" {
		t.Fatalf("fact payload lost: %#v", recs[0].Fact)
	}
}
