package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"sx4bench/internal/fault"
	"sx4bench/internal/ncar"
	"sx4bench/internal/serve"
	"sx4bench/internal/target"
)

// Plans at a twentieth of the benchmark's size keep the tests quick
// while every list still has several chunks.
const testScale = 1

func mustPlan(t *testing.T, w string, seed uint64) *plan {
	t.Helper()
	p, err := newPlan(w, seed, testScale, 2)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// planBytes serializes every request of a plan in order.
func planBytes(p *plan) []byte {
	var b bytes.Buffer
	for _, r := range append(p.Setup, p.timed()...) {
		fmt.Fprintf(&b, "%s %d %q %v\n", r.Path, r.Due, r.Body, r.Keys)
	}
	fmt.Fprintln(&b, p.Paper)
	return b.Bytes()
}

func TestPlanIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b, c := planBytes(mustPlan(t, w, 7)), planBytes(mustPlan(t, w, 7)), planBytes(mustPlan(t, w, 8))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave different request lists", w)
		}
		if w != "paper" && bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same request list", w)
		}
	}
}

func TestTablesMatchRegistry(t *testing.T) {
	var names []string
	for _, m := range machines {
		names = append(names, m.name)
		tgt, err := target.Lookup(m.name)
		if err != nil {
			t.Fatal(err)
		}
		if got := tgt.Spec().CPUs; got != m.cpus {
			t.Errorf("%s has %d CPUs, the generator assumes %d", m.name, got, m.cpus)
		}
	}
	if !slices.Equal(names, target.All()) {
		t.Errorf("generator machines %v, registry %v", names, target.All())
	}
	var suite []string
	for _, b := range ncar.Suite() {
		suite = append(suite, b.Name)
	}
	if !slices.Equal(members, suite) {
		t.Errorf("generator members %v, suite %v", members, suite)
	}
}

// TestSweepKeysDistinct: every sweep-cold line is a query no earlier
// line or set-up request asked, except the designed duplicates, each of
// which repeats the previous connection's line at the same position.
func TestSweepKeysDistinct(t *testing.T) {
	p := mustPlan(t, "sweep-cold", 3)
	seen := map[uint64]bool{}
	for _, r := range p.Setup {
		seen[r.Keys[0]] = true
	}
	dups := 0
	check := func(r request, prev *request) {
		for i, k := range r.Keys {
			if r.Dup[i] {
				dups++
				if prev == nil || prev.Keys[i] != k {
					t.Fatalf("duplicate line %016x does not repeat the previous connection's line", k)
				}
				continue
			}
			if seen[k] {
				t.Fatalf("line %016x sent twice", k)
			}
			seen[k] = true
		}
	}
	for i := range p.Closed[0] {
		for c := range p.Closed {
			var prev *request
			if c > 0 {
				prev = &p.Closed[c-1][i]
			}
			check(p.Closed[c][i], prev)
		}
	}
	for _, r := range p.Serial {
		check(r, nil)
	}
	if dups == 0 {
		t.Error("no designed duplicates: single-flight has nothing to coalesce")
	}
}

// TestRunHotSpellingsCollapse: every spelling of a hot key decodes to
// the hot key's canonical form and content key, so after the set-up
// every timed request is a cache hit.
func TestRunHotSpellingsCollapse(t *testing.T) {
	p := mustPlan(t, "run-hot", 5)
	fps := map[uint64]uint64{}
	fingerprint := func(body []byte) uint64 {
		req, err := serve.DecodeRunRequest(body)
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		c := req.Canonical()
		tgt, err := target.Lookup(c.Machine)
		if err != nil {
			t.Fatal(err)
		}
		return c.Fingerprint(tgt.Fingerprint())
	}
	for _, r := range p.Setup {
		fps[r.Keys[0]] = fingerprint(r.Body)
	}
	if len(fps) != hotKeys+1 {
		t.Fatalf("%d hot keys, want %d", len(fps), hotKeys+1)
	}
	spellings := map[string]bool{}
	for _, r := range p.timed() {
		want, ok := fps[r.Keys[0]]
		if !ok {
			t.Fatalf("timed request %s is not a hot key", r.Body)
		}
		if got := fingerprint(r.Body); got != want {
			t.Fatalf("%s canonicalizes apart from its hot key", r.Body)
		}
		spellings[string(r.Body)] = true
	}
	if len(spellings) < 2*len(fps) {
		t.Errorf("only %d spellings of %d keys", len(spellings), len(fps))
	}
}

// TestFaultLinesAnswer runs every member the generator may put on a
// fault line, under every fault seed it may draw, on every machine and
// cpus value: none may fail, so no sweep-cold line answers 422.
func TestFaultLinesAnswer(t *testing.T) {
	for _, m := range machines {
		tgt, err := target.Lookup(m.name)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range faultSeeds {
			for _, name := range subset(faultMembers) {
				for _, cpus := range cpusOptions(m.cpus) {
					opts := ncar.ResilientOpts{Injector: fault.NewPlan(seed, fault.CanonicalHorizon, fault.CanonicalEvents)}
					if _, err := ncar.MeasureResilient(context.Background(), tgt, name, cpus, opts); err != nil {
						t.Errorf("%s seed %d %s cpus %d: %v", m.name, seed, name, cpus, err)
					}
				}
			}
		}
	}
}

// TestSweepLinesAnswer200 sends a generated sweep-cold plan to the
// daemon: every request answers 200 and no line carries an error.
func TestSweepLinesAnswer200(t *testing.T) {
	p, err := newPlan("sweep-cold", 9, 0.5, 2)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(sx4d())
	defer srv.Close()
	for _, r := range append(p.Setup, p.timed()...) {
		resp, err := http.Post(srv.URL+r.Path, "application/json", bytes.NewReader(r.Body))
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		b.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", r.Body, resp.StatusCode)
		}
		for _, line := range bytes.Split(bytes.TrimSpace(b.Bytes()), []byte("\n")) {
			var e struct{ Error string }
			if err := json.Unmarshal(line, &e); err != nil || e.Error != "" {
				t.Fatalf("line answered %s (%v)", line, err)
			}
		}
	}
}

func TestGuardRefusesOversubscription(t *testing.T) {
	p := mustPlan(t, "run-hot", 1)
	if err := p.guard(1); err == nil {
		t.Error("a plan for 2 connections passed the guard on 1 CPU")
	}
	if err := p.guard(2); err != nil {
		t.Error(err)
	}
}
