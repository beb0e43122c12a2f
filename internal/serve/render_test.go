package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"sx4bench/internal/benchjson"
	"sx4bench/internal/ncar"
	"sx4bench/internal/target"
)

// checkRender fails t unless renderRunResponse writes exactly
// json.Marshal's bytes and a newline for resp, or fails where
// json.Marshal fails.
func checkRender(t *testing.T, resp RunResponse) {
	t.Helper()
	got, err := renderRunResponse(&resp)
	want, werr := json.Marshal(resp)
	if (err == nil) != (werr == nil) {
		t.Fatalf("render error %v, json.Marshal error %v, for %+v", err, werr, resp)
	}
	if werr == nil && !bytes.Equal(got, append(want, '\n')) {
		t.Fatalf("render and json.Marshal disagree:\n got %q\nwant %q", got, want)
	}
}

// TestRunResponseRenderMatchesMarshal pins the append encoder to
// json.Marshal. Hand-built rows cover what the model never writes:
// strings json escapes, floats at and past its exponent cutoffs, the
// per-op counters, nil and empty slices and maps, and the non-finite
// floats both must refuse. Then every registered machine × fault seeds
// 0–12 × cpus 0, 1 and 4 × the full suite and each member alone, at a
// 900 s deadline and 2 attempts so that some faulted queries fail:
// each daemon body must be json.Marshal of the query's response plus a
// newline, and each failed query must fail with the same error.
func TestRunResponseRenderMatchesMarshal(t *testing.T) {
	n := int64(4096)
	zero := int64(0)
	names := []string{
		"", "COPY", "1<2", "2>1", "R&D", `say "hi"`, `back\slash`, "ctl\x00\x01\x1f\x7f\t\n\r\b\f",
		"bad\xffutf8\xc3", "sep\u2028par\u2029", "é", "</script>",
	}
	floats := []float64{
		0, math.Copysign(0, -1), 1e-7, -1e-7, 1e-6, 9.999999e-7, 1e20, 1e21, -1e21,
		123456789012345678901, 5e-324, math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64 * 3, 2.5e-10, 1.5e300, 0.1, 13906.590820120333,
	}
	var rows []RunResponse
	for _, name := range names {
		rows = append(rows, RunResponse{Machine: name, CPUs: -3, FaultSeed: -7, Results: []benchjson.Result{
			{Name: name, Iterations: -1, Metrics: map[string]float64{name: 1, "z" + name: 2, "a": 3}},
		}})
	}
	for _, f := range floats {
		rows = append(rows, RunResponse{Machine: "m", Results: []benchjson.Result{
			{Name: "x", NsPerOp: f, Metrics: map[string]float64{"rate": f, "attempts": -f}},
		}})
	}
	rows = append(rows,
		RunResponse{Machine: "nil results"},
		RunResponse{Machine: "empty results", Results: []benchjson.Result{}},
		RunResponse{Machine: "metrics", FaultSeed: 1, Results: []benchjson.Result{
			{Name: "nil"}, {Name: "empty", Metrics: map[string]float64{}},
			{Name: "per-op", Iterations: math.MaxInt64, BytesPerOp: &n, AllocsPerOp: &zero},
			{Name: "bytes only", BytesPerOp: &zero}, {Name: "allocs only", AllocsPerOp: &n},
		}},
	)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		rows = append(rows,
			RunResponse{Machine: "m", Results: []benchjson.Result{{Name: "x", NsPerOp: bad}}},
			RunResponse{Machine: "m", Results: []benchjson.Result{{Name: "x", Metrics: map[string]float64{"a": 1, "b": bad}}}},
		)
	}
	for _, resp := range rows {
		checkRender(t, resp)
	}

	ctx := context.Background()
	s := New(Config{})
	lists := [][]string{nil}
	for _, b := range ncar.Suite() {
		lists = append(lists, []string{b.Name})
	}
	var bodies, failed int
	for _, machine := range target.All() {
		tgt, err := s.target(machine)
		if err != nil {
			t.Fatal(err)
		}
		for seed := range int64(13) {
			for _, cpus := range []int{0, 1, 4} {
				for _, list := range lists {
					req := RunRequest{Machine: machine, Benchmarks: list, CPUs: cpus, FaultSeed: seed, DeadlineSeconds: 900, MaxAttempts: 2}
					q, err := s.resolveRun(req, classRun)
					if err != nil {
						t.Fatal(err)
					}
					body, _, err := s.serve(ctx, q)
					resp, werr := s.execute(ctx, tgt, req.Canonical(), 1)
					if werr != nil {
						if err == nil || err.Error() != werr.Error() {
							t.Fatalf("%+v: daemon error %v, reference error %v", req, err, werr)
						}
						failed++
						continue
					}
					if err != nil {
						t.Fatalf("%+v: daemon error %v, reference answered", req, err)
					}
					want, err := json.Marshal(resp)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(body, append(want, '\n')) {
						t.Fatalf("%+v: daemon body differs from json.Marshal:\n got %s\nwant %s", req, body, want)
					}
					bodies++
				}
			}
		}
	}
	if bodies == 0 || failed == 0 {
		t.Fatalf("%d bodies and %d failed queries: the sweep must cover both", bodies, failed)
	}
	t.Logf("%d daemon bodies equal json.Marshal's; %d failed queries failed alike", bodies, failed)
}

// TestRunResponseFieldsAreRendered fails when RunResponse or
// benchjson.Result gains a JSON field the encoder does not write: it
// renders a response with every field set and compares the keys
// written with the fields reflection lists.
func TestRunResponseFieldsAreRendered(t *testing.T) {
	one := int64(1)
	full := RunResponse{Machine: "m", CPUs: 1, FaultSeed: 1, Results: []benchjson.Result{{
		Name: "n", Iterations: 1, NsPerOp: 1, BytesPerOp: &one, AllocsPerOp: &one,
		Metrics: map[string]float64{"k": 1},
	}}}
	body, err := renderRunResponse(&full)
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(body, &top); err != nil {
		t.Fatal(err)
	}
	var results []map[string]json.RawMessage
	if err := json.Unmarshal(top["results"], &results); err != nil || len(results) != 1 {
		t.Fatalf("results %s: %v", top["results"], err)
	}
	for _, c := range []struct {
		typ     reflect.Type
		written map[string]json.RawMessage
	}{
		{reflect.TypeFor[RunResponse](), top},
		{reflect.TypeFor[benchjson.Result](), results[0]},
	} {
		var fields []string
		for i := range c.typ.NumField() {
			f := c.typ.Field(i)
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			if name == "" {
				name = f.Name
			}
			if f.IsExported() && name != "-" {
				fields = append(fields, name)
			}
		}
		var keys []string
		for k := range c.written {
			keys = append(keys, k)
		}
		slices.Sort(fields)
		slices.Sort(keys)
		if !slices.Equal(fields, keys) {
			t.Errorf("%v has JSON fields %q but a response with every field set renders %q", c.typ, fields, keys)
		}
	}
}

// canonicalResponse is the response behind the golden-pinned body.
func canonicalResponse(tb testing.TB) RunResponse {
	tb.Helper()
	s := New(Config{})
	tgt, err := s.target(CanonicalRequest().Machine)
	if err != nil {
		tb.Fatal(err)
	}
	resp, err := s.execute(context.Background(), tgt, CanonicalRequest().Canonical(), 0)
	if err != nil {
		tb.Fatal(err)
	}
	return resp
}

// TestRunBodyIsExactSize pins what the body bytes cannot show: the
// response cache charges a body's length against its budget, so the
// body must hold no slack capacity, and the canonical render allocates
// only the body itself.
func TestRunBodyIsExactSize(t *testing.T) {
	resp := canonicalResponse(t)
	body, err := renderRunResponse(&resp)
	if err != nil {
		t.Fatal(err)
	}
	if cap(body) != len(body) {
		t.Errorf("body has len %d, cap %d: slack the cache budget does not count", len(body), cap(body))
	}
	if allocs := testing.AllocsPerRun(100, func() { renderRunResponse(&resp) }); allocs > 1 {
		t.Errorf("canonical render makes %v allocations, want at most 1 (the body)", allocs)
	}
}

// BenchmarkRenderRunResponse compares the append encoder with the
// json.Marshal it replaced on the canonical body.
func BenchmarkRenderRunResponse(b *testing.B) {
	resp := canonicalResponse(b)
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := renderRunResponse(&resp); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("json.Marshal", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			body, err := json.Marshal(resp)
			if err != nil {
				b.Fatal(err)
			}
			_ = append(body, '\n')
		}
	})
}
