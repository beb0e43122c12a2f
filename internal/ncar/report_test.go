package ncar

import (
	"bytes"
	"strings"
	"testing"
)

func TestAnchorsAllPass(t *testing.T) {
	// The headline acceptance test of the whole reproduction: every
	// scalar anchor of the paper within its declared band.
	for _, a := range Anchors(bench()) {
		if !a.Pass() {
			t.Errorf("%s: paper %.2f, model %.2f (%+.1f%%, band ±%.0f%%)",
				a.Name, a.Paper, a.Model, a.Deviation(), a.TolPct)
		}
	}
}

func TestAnchorsCoverage(t *testing.T) {
	as := Anchors(bench())
	if len(as) < 9 {
		t.Fatalf("only %d anchors; the paper has at least 9 scalar results", len(as))
	}
	seen := map[string]bool{}
	for _, a := range as {
		if seen[a.Name] {
			t.Errorf("duplicate anchor %q", a.Name)
		}
		seen[a.Name] = true
		if a.Paper <= 0 || a.Model <= 0 {
			t.Errorf("anchor %q has non-positive values: %+v", a.Name, a)
		}
	}
}

func TestAnchorDeviationMath(t *testing.T) {
	a := Anchor{Paper: 100, Model: 110, TolPct: 15}
	if d := a.Deviation(); d < 9.99 || d > 10.01 {
		t.Errorf("deviation = %v, want 10", d)
	}
	if !a.Pass() {
		t.Error("10% deviation inside a 15% band should pass")
	}
	a.TolPct = 5
	if a.Pass() {
		t.Error("10% deviation outside a 5% band passed")
	}
}

func TestWriteReport(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteReport(&buf, bench()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"PARANOIA true", "RADABS", "PRODLOAD", "LINPACK", "STREAM", "HINT",
		"Verdict: all anchors within bands",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if strings.Contains(out, "OUT OF BAND") {
		t.Error("report contains out-of-band anchors")
	}
}

// TestWriteReportCacheProbe pins the report's compiled-trace cache
// line: RADABS is one trace, so a fresh probe compiles it once on the
// cold pass and reuses it on the warm one. The probe is a Clone, so
// the line must not depend on how warm the reported machine already is.
func TestWriteReportCacheProbe(t *testing.T) {
	const want = "\nTiming cache (fresh probe, RADABS twice): cold pass 1 misses 0 hits; warm pass +1 hits +0 misses\n"
	m := bench()
	for pass := 1; pass <= 2; pass++ {
		var buf bytes.Buffer
		if err := WriteReport(&buf, m); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), want) {
			t.Errorf("report pass %d: missing probe line %q", pass, strings.TrimSpace(want))
		}
	}
}

func TestProfileTable(t *testing.T) {
	tab, err := ProfileTable(bench(), "T42L18", 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 9 { // 8 phases + total
		t.Fatalf("profile has %d rows", len(tab.Rows))
	}
	names := map[string]bool{}
	for _, r := range tab.Rows {
		names[r[0]] = true
	}
	for _, want := range []string{"legendre", "fft", "radiation", "physics", "slt", "orchestration", "total"} {
		if !names[want] {
			t.Errorf("profile missing phase %q", want)
		}
	}
	if _, err := ProfileTable(bench(), "T31L18", 32); err == nil {
		t.Error("unknown resolution accepted")
	}
}

func TestRunBenchmarkAllSuiteMembers(t *testing.T) {
	m := bench()
	for _, b := range Suite() {
		var buf bytes.Buffer
		if err := RunBenchmark(&buf, m, b.Name, 8); err != nil {
			t.Errorf("%s: %v", b.Name, err)
			continue
		}
		if buf.Len() == 0 {
			t.Errorf("%s produced no output", b.Name)
		}
	}
	if err := RunBenchmark(&bytes.Buffer{}, m, "NOPE", 1); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestRunBenchmarkDefaultCPUs(t *testing.T) {
	var buf bytes.Buffer
	if err := RunBenchmark(&buf, bench(), "MOM", 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "MOM") {
		t.Error("MOM output missing")
	}
}

func TestMultiNodeTable(t *testing.T) {
	tab, err := MultiNodeTable(bench(), "T170L18")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("%d rows, want 5 (1..16 nodes)", len(tab.Rows))
	}
	if tab.Rows[0][0] != "1" || tab.Rows[4][0] != "16" {
		t.Errorf("node column wrong: %v", tab.Rows)
	}
	if _, err := MultiNodeTable(bench(), "T31L18"); err == nil {
		t.Error("unknown resolution accepted")
	}
}
