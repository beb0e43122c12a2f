package target

import (
	"strings"
	"testing"

	"sx4bench/internal/sx4/prog"
)

// stub is a minimal deterministic Target for registry and conformance
// tests.
type stub struct {
	name string
	fp   uint64
}

func (s *stub) Name() string { return s.name }
func (s *stub) Run(p prog.Program, opts RunOpts) Result {
	return s.RunCompiled(prog.MustCompile(p), opts)
}
func (s *stub) RunCompiled(c *prog.Compiled, opts RunOpts) Result {
	procs := opts.Procs
	if procs <= 0 {
		procs = 1
	}
	clocks := float64(c.Flops+c.Words) / float64(procs)
	return Result{
		Program: c.Name, Procs: procs,
		Clocks: clocks, Seconds: clocks * 1e-9,
		Flops: c.Flops, Words: c.Words,
	}
}
func (s *stub) CacheStats() CacheStats { return CacheStats{} }
func (s *stub) Scalar() ScalarProfile  { return ScalarProfile{ClockNS: 1, IssuePerClock: 1} }
func (s *stub) Spec() Spec {
	return Spec{CPUs: 4, Nodes: 1, ClockNS: 1, PeakMFLOPSPerCPU: 1000}
}
func (s *stub) Fingerprint() uint64 { return s.fp }
func (s *stub) Clone() Target       { c := *s; return &c }

func TestRegistryLookup(t *testing.T) {
	Register("test-stub-a", func() Target { return &stub{name: "Stub A", fp: 1} })

	got, err := Lookup("test-stub-a")
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	if got.Name() != "Stub A" {
		t.Errorf("Name = %q, want %q", got.Name(), "Stub A")
	}
	// Case-insensitive, whitespace-tolerant.
	if _, err := Lookup("  Test-Stub-A "); err != nil {
		t.Errorf("case-insensitive Lookup: %v", err)
	}
	// Fresh instance per call.
	a, _ := Lookup("test-stub-a")
	b, _ := Lookup("test-stub-a")
	if a == b {
		t.Error("Lookup returned the same instance twice")
	}
}

func TestLookupNormalization(t *testing.T) {
	// CLI -machine flags arrive hand-typed and copy-pasted; every
	// casing and whitespace variant of a registered name must resolve
	// to the same machine, through Lookup and MustLookup alike.
	Register("test-stub-norm", func() Target { return &stub{name: "Stub Norm", fp: 9} })

	for _, name := range []string{
		"TEST-STUB-NORM",
		"Test-Stub-Norm",
		"tEsT-sTuB-nOrM",
		" test-stub-norm",
		"test-stub-norm ",
		"\ttest-stub-norm\t",
		"\n TEST-stub-NORM \n",
	} {
		got, err := Lookup(name)
		if err != nil {
			t.Errorf("Lookup(%q): %v", name, err)
			continue
		}
		if got.Name() != "Stub Norm" {
			t.Errorf("Lookup(%q) = %q, want %q", name, got.Name(), "Stub Norm")
		}
		if m := MustLookup(name); m.Name() != "Stub Norm" {
			t.Errorf("MustLookup(%q) = %q, want %q", name, m.Name(), "Stub Norm")
		}
	}

	// Interior whitespace is not normalized away: it makes a
	// different (unknown) name.
	if _, err := Lookup("test-stub\t-norm"); err == nil {
		t.Error("Lookup with interior whitespace resolved; want unknown-machine error")
	}
	// Registration normalizes the same way, so a differently-cased
	// duplicate is still a duplicate.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Register of differently-cased duplicate did not panic")
			}
		}()
		Register("  TEST-STUB-NORM ", func() Target { return &stub{name: "dup", fp: 10} })
	}()
}

func TestRegistryUnknown(t *testing.T) {
	_, err := Lookup("no-such-machine")
	if err == nil {
		t.Fatal("Lookup of unknown name: want error")
	}
	if !strings.Contains(err.Error(), `"no-such-machine"`) {
		t.Errorf("error does not name the unknown machine: %v", err)
	}
	if !strings.Contains(err.Error(), "known:") {
		t.Errorf("error does not list known machines: %v", err)
	}
}

func TestRegistryAll(t *testing.T) {
	Register("test-stub-z", func() Target { return &stub{name: "Stub Z", fp: 2} })
	Register("test-stub-m", func() Target { return &stub{name: "Stub M", fp: 3} })
	all := All()
	zi, mi := -1, -1
	for i, n := range all {
		switch n {
		case "test-stub-z":
			zi = i
		case "test-stub-m":
			mi = i
		}
	}
	if zi < 0 || mi < 0 {
		t.Fatalf("All() missing registered names: %v", all)
	}
	if zi > mi {
		t.Errorf("All() not in registration order: %v", all)
	}
	// All returns a copy: mutating it must not corrupt the registry.
	all[zi] = "mutated"
	if All()[zi] != "test-stub-z" {
		t.Error("All() aliases the internal order slice")
	}
}

func TestRegisterPanics(t *testing.T) {
	for _, tc := range []struct {
		desc string
		fn   func()
	}{
		{"empty name", func() { Register("", func() Target { return nil }) }},
		{"reserved all", func() { Register("all", func() Target { return nil }) }},
		{"nil ctor", func() { Register("test-stub-nilctor", nil) }},
		{"duplicate", func() {
			Register("test-stub-dup", func() Target { return &stub{} })
			Register("Test-Stub-Dup", func() Target { return &stub{} })
		}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Register did not panic", tc.desc)
				}
			}()
			tc.fn()
		}()
	}
}

func TestMustLookupPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustLookup of unknown name did not panic")
		}
	}()
	MustLookup("no-such-machine")
}

func TestCacheStatsString(t *testing.T) {
	s := CacheStats{Hits: 3, Misses: 1, Entries: 2}
	want := "3 hits, 1 misses (75.0% hit rate), 2 entries"
	if got := s.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if (CacheStats{}).HitRate() != 0 {
		t.Error("zero-stats HitRate should be 0")
	}
}

func TestResultRates(t *testing.T) {
	r := Result{Flops: 2e6, Words: 1e6, Seconds: 1}
	if got := r.MFLOPS(); got != 2 {
		t.Errorf("MFLOPS = %v, want 2", got)
	}
	if got := r.GFLOPS(); got != 0.002 {
		t.Errorf("GFLOPS = %v, want 0.002", got)
	}
	if got := r.PortMBps(); got != 8 {
		t.Errorf("PortMBps = %v, want 8", got)
	}
	var zero Result
	if zero.MFLOPS() != 0 || zero.PortMBps() != 0 {
		t.Error("zero-seconds rates should be 0")
	}
}

func TestSpecSeconds(t *testing.T) {
	s := Spec{ClockNS: 8}
	if got := s.Seconds(1e9); got != 8 {
		t.Errorf("Seconds(1e9) at 8ns = %v, want 8", got)
	}
}

func TestConformanceOnStub(t *testing.T) {
	Conformance(t, &stub{name: "Stub C", fp: 9})
}
