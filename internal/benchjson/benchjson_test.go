package benchjson

import (
	"errors"
	"math"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: sx4bench
cpu: Xeon
BenchmarkRADABS-8   	     100	  11983456 ns/op	      876 mflops
BenchmarkRunAllSerial-8	       5	 200000000 ns/op	 1024 B/op	       3 allocs/op
BenchmarkRunAllParallel-8	      10	 100000000 ns/op
some test chatter
PASS
`

func TestParseSample(t *testing.T) {
	b, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if b.GOOS != "linux" || b.GOARCH != "amd64" || b.CPU != "Xeon" {
		t.Errorf("header context = %q/%q/%q", b.GOOS, b.GOARCH, b.CPU)
	}
	if len(b.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(b.Benchmarks))
	}
	rad := b.Benchmarks[0]
	if rad.Name != "BenchmarkRADABS-8" || rad.Iterations != 100 || rad.NsPerOp != 11983456 {
		t.Errorf("RADABS line parsed as %+v", rad)
	}
	if rad.Metrics["mflops"] != 876 {
		t.Errorf("custom metric = %v, want 876", rad.Metrics)
	}
	serial := b.Benchmarks[1]
	if serial.BytesPerOp == nil || *serial.BytesPerOp != 1024 ||
		serial.AllocsPerOp == nil || *serial.AllocsPerOp != 3 {
		t.Errorf("alloc counters parsed as %+v", serial)
	}
	if math.Abs(b.RunAllSpeedup-2.0) > 1e-12 {
		t.Errorf("RunAllSpeedup = %v, want 2.0", b.RunAllSpeedup)
	}
}

func TestParseCapacitySpeedup(t *testing.T) {
	in := `BenchmarkCapacityMonteCarlo/workers=1-8   	       1	 9000000000 ns/op	 1111 scenarios/s
BenchmarkCapacityMonteCarlo/workers=4-8   	       1	 4500000000 ns/op	 2222 scenarios/s
BenchmarkCapacityMonteCarlo/workers=8-8   	       1	 3000000000 ns/op	 3333 scenarios/s
`
	b, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b.CapacitySpeedup-3.0) > 1e-12 {
		t.Errorf("CapacitySpeedup = %v, want 3.0 (workers=1 over workers=8)", b.CapacitySpeedup)
	}
	// Either end missing means no summary, not a half-derived one.
	half, err := Parse(strings.NewReader("BenchmarkCapacityMonteCarlo/workers=1-8 1 9000000000 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if half.CapacitySpeedup != 0 {
		t.Errorf("CapacitySpeedup = %v from a single variant, want 0", half.CapacitySpeedup)
	}
}

func TestParseCapacitySpeedupTwoCores(t *testing.T) {
	// On a 2-core host the sweep is workers={1, GOMAXPROCS=2}: the
	// largest multi-worker row is the parallel end, whatever its count.
	in := `BenchmarkCapacityMonteCarlo/workers=1-2   	       1	 9000000000 ns/op	 1111 scenarios/s
BenchmarkCapacityMonteCarlo/workers=2-2   	       1	 4500000000 ns/op	 2222 scenarios/s
`
	b, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b.CapacitySpeedup-2.0) > 1e-12 {
		t.Errorf("CapacitySpeedup = %v, want 2.0 (workers=1 over workers=2)", b.CapacitySpeedup)
	}
}

func TestParseEmptyErrors(t *testing.T) {
	for _, in := range []string{"", "PASS\nok\n", "goos: linux\n"} {
		if _, err := Parse(strings.NewReader(in)); err == nil {
			t.Errorf("Parse(%q) accepted input with no benchmark lines", in)
		}
	}
}

func TestParseLineRejectsMalformed(t *testing.T) {
	bad := []string{
		"BenchmarkX",                    // too few fields
		"BenchmarkX ten 5 ns/op",        // non-numeric iterations
		"BenchmarkX 10 five ns/op",      // non-numeric value
		"BenchmarkX 10 5 widgets extra", // no ns/op or metric pair parsed -> metrics
		"BenchmarkX 10 0 ns/op",         // zero ns/op and no metrics
	}
	for _, line := range bad[:3] {
		if _, ok := ParseLine(line); ok {
			t.Errorf("ParseLine(%q) accepted malformed line", line)
		}
	}
	if _, ok := ParseLine(bad[4]); ok {
		t.Errorf("ParseLine(%q) accepted zero-information line", bad[4])
	}
}

func TestParseLineRejectsNonFinite(t *testing.T) {
	// ParseFloat accepts NaN/Inf spellings; the parser must not, or the
	// JSON baseline becomes unserializable (found by FuzzReportParse).
	for _, line := range []string{
		"Benchmark 0 NAN 0",
		"BenchmarkX-8 10 Inf ns/op",
		"BenchmarkX-8 10 5 ns/op -Inf widgets",
	} {
		if _, ok := ParseLine(line); ok {
			t.Errorf("ParseLine(%q) accepted a non-finite value", line)
		}
	}
}

func TestParseLineRejectsInfMetrics(t *testing.T) {
	// Every spelling ParseFloat accepts for the infinities must be
	// rejected in the metric position too, not just in ns/op.
	for _, line := range []string{
		"BenchmarkX-8 10 5 ns/op +Inf mflops",
		"BenchmarkX-8 10 5 ns/op inf mflops",
		"BenchmarkX-8 10 5 ns/op Infinity mflops",
		"BenchmarkX-8 10 5 ns/op -infinity mflops",
		"BenchmarkX-8 10 5 ns/op nan mflops",
	} {
		if _, ok := ParseLine(line); ok {
			t.Errorf("ParseLine(%q) accepted a non-finite metric", line)
		}
	}
}

type failingReader struct{ err error }

func (r failingReader) Read([]byte) (int, error) { return 0, r.err }

func TestParseReaderError(t *testing.T) {
	// A reader that fails mid-stream (interrupted pipe) must surface
	// the error rather than return a silently short baseline.
	wantErr := errors.New("pipe broke")
	if _, err := Parse(failingReader{wantErr}); !errors.Is(err, wantErr) {
		t.Errorf("Parse with failing reader: err = %v, want %v", err, wantErr)
	}
}

func TestValidateRejectsMalformed(t *testing.T) {
	for desc, b := range map[string]Baseline{
		"no records":     {},
		"unnamed record": {Benchmarks: []Result{{Iterations: 10, NsPerOp: 5}}},
		"neg iterations": {Benchmarks: []Result{{Name: "BenchmarkX-8", Iterations: -1, NsPerOp: 5}}},
	} {
		if err := Validate(b); err == nil {
			t.Errorf("Validate accepted a baseline with %s", desc)
		}
	}
}

func TestValidateRejectsNonFinite(t *testing.T) {
	// JSON cannot spell NaN/Inf, but in-memory baselines can hold
	// them; Validate is the gate before Marshal.
	base := func() Baseline {
		return Baseline{Benchmarks: []Result{{Name: "BenchmarkX-8", Iterations: 10, NsPerOp: 5}}}
	}
	good := base()
	if err := Validate(good); err != nil {
		t.Fatalf("Validate rejected a good baseline: %v", err)
	}
	cases := map[string]Baseline{}
	b := base()
	b.Benchmarks[0].NsPerOp = math.Inf(1)
	cases["Inf ns/op"] = b
	b = base()
	b.Benchmarks[0].Metrics = map[string]float64{"mflops": math.NaN()}
	cases["NaN metric"] = b
	b = base()
	b.Benchmarks[0].Metrics = map[string]float64{"mflops": math.Inf(-1)}
	cases["-Inf metric"] = b
	b = base()
	b.RunAllSpeedup = math.NaN()
	cases["NaN speedup"] = b
	for desc, bl := range cases {
		if err := Validate(bl); err == nil {
			t.Errorf("Validate accepted a baseline with %s", desc)
		}
	}
}

func TestParseLineVeryLongLine(t *testing.T) {
	// The scanner buffer must survive long single lines (wide CPU
	// strings, huge metric lists) without erroring out.
	line := "BenchmarkLong-8 10 5 ns/op" + strings.Repeat(" 1 m/op", 5000)
	b, err := Parse(strings.NewReader(line))
	if err != nil {
		t.Fatalf("long line: %v", err)
	}
	if len(b.Benchmarks) != 1 {
		t.Fatalf("long line parsed %d benchmarks", len(b.Benchmarks))
	}
}

// TestGOMAXPROCS pins the host record's reading of go test's name
// suffix: "-N" on every record means GOMAXPROCS N, and a record
// without one means the run was at 1.
func TestGOMAXPROCS(t *testing.T) {
	rec := func(names ...string) []Result {
		var rs []Result
		for _, n := range names {
			rs = append(rs, Result{Name: n})
		}
		return rs
	}
	for _, tc := range []struct {
		records []Result
		want    int
	}{
		{rec("BenchmarkColdSweep10k/workers=1-2", "BenchmarkColdSweep10k/workers=2-2"), 2},
		{rec("BenchmarkColdSweep10k/workers=1", "BenchmarkColdSweep10k/workers=2"), 1},
		{rec("BenchmarkMachine/sx4-32-8"), 8},
		{rec("BenchmarkMachine/sx4-32-8", "BenchmarkRunAllSerial"), 1},
		{rec("BenchmarkX-"), 1},
		{nil, 1},
	} {
		if got := GOMAXPROCS(tc.records); got != tc.want {
			t.Errorf("GOMAXPROCS(%v) = %d, want %d", tc.records, got, tc.want)
		}
	}
}
