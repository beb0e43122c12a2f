package sx4bench_test

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"sx4bench"
	"sx4bench/internal/ccm2"
)

// Example regenerates the paper's Table 4 (CCM2 resolutions), the one
// experiment whose values are exact by construction.
func Example() {
	m := sx4bench.Benchmarked()
	if err := sx4bench.RunExperiment(os.Stdout, m, "table4"); err != nil {
		panic(err)
	}
	// Output:
	// table4: Typical CCM2 resolutions, grid spacings, and time steps
	// Model Resolution  Horizontal Grid Size  Nominal Grid Spacing  Time Step
	// ----------------  --------------------  --------------------  ---------
	// T42L18            64 x 128              2.8 degrees           20.0 min.
	// T63L18            96 x 192              2.1 degrees           12.0 min.
	// T85L18            128 x 256             1.4 degrees           10.0 min.
	// T106L18           160 x 320             1.1 degrees           7.5 min.
	// T170L18           256 x 512             0.7 degrees           5.0 min.
}

func TestFacadeMachines(t *testing.T) {
	b := sx4bench.Benchmarked()
	if b.Config().ClockNS != 9.2 || b.Config().CPUs != 32 {
		t.Errorf("Benchmarked config: %+v", b.Config())
	}
	p := sx4bench.Production(16, 2)
	if p.Config().ClockNS != 8.0 || p.Config().TotalCPUs() != 32 {
		t.Errorf("Production config: %+v", p.Config())
	}
}

func TestRunExperimentAllIDs(t *testing.T) {
	m := sx4bench.Benchmarked()
	for _, id := range sx4bench.Experiments() {
		var buf bytes.Buffer
		if err := sx4bench.RunExperiment(&buf, m, id); err != nil {
			t.Errorf("experiment %s: %v", id, err)
		}
		if buf.Len() == 0 {
			t.Errorf("experiment %s produced no output", id)
		}
	}
}

func TestRunExperimentUnknown(t *testing.T) {
	var buf bytes.Buffer
	if err := sx4bench.RunExperiment(&buf, sx4bench.Benchmarked(), "fig99"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestNilTargetErrors pins the facade's nil-target check: every
// experiment, and the whole run, fails with an error that names the
// experiment before writing a byte.
func TestNilTargetErrors(t *testing.T) {
	for _, id := range sx4bench.Experiments() {
		var buf bytes.Buffer
		err := sx4bench.RunExperiment(&buf, nil, id)
		if err == nil || !strings.Contains(err.Error(), id) || buf.Len() != 0 {
			t.Errorf("experiment %s on a nil target: %v, %d bytes written", id, err, buf.Len())
		}
	}
	var buf bytes.Buffer
	if err := sx4bench.RunAllWorkers(&buf, nil, 2); err == nil || buf.Len() != 0 {
		t.Errorf("RunAllWorkers on a nil target: %v, %d bytes written", err, buf.Len())
	}
}

func TestRunAllOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := sx4bench.RunAll(&buf, sx4bench.Benchmarked()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"table7", "fig8", "PRODLOAD", "PARANOIA", "865.9"} {
		if !strings.Contains(out, want) {
			t.Errorf("RunAll output missing %q", want)
		}
	}
}

// TestRunAllParallelMatchesSerial is the engine's golden test: for any
// worker count the full experiment stream must be byte-identical to
// the serial run — same experiments, same order, same text.
func TestRunAllParallelMatchesSerial(t *testing.T) {
	var serial bytes.Buffer
	if err := sx4bench.RunAllWorkers(&serial, sx4bench.Benchmarked(), 1); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 8} {
		var parallel bytes.Buffer
		if err := sx4bench.RunAllWorkers(&parallel, sx4bench.Benchmarked(), workers); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(serial.Bytes(), parallel.Bytes()) {
			a, b := serial.String(), parallel.String()
			i := 0
			for i < len(a) && i < len(b) && a[i] == b[i] {
				i++
			}
			lo := i - 40
			if lo < 0 {
				lo = 0
			}
			t.Fatalf("workers=%d output differs from serial at byte %d: %q vs %q",
				workers, i, a[lo:minLen(i+40, len(a))], b[lo:minLen(i+40, len(b))])
		}
	}
}

func minLen(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestProductionClockClaim(t *testing.T) {
	// The paper: "We anticipate that an additional 15% performance
	// improvement can be realized with some code tuning and running on
	// a system with an 8.0 ns clock." The clock alone gives 9.2/8.0 =
	// 15% on compute-bound work.
	bench := sx4bench.Benchmarked()
	prod := sx4bench.Production(32, 1)
	res, _ := ccm2.ResolutionByName("T170L18")
	gfBench := ccm2.SustainedGFLOPS(bench, res, 32)
	gfProd := ccm2.SustainedGFLOPS(prod, res, 32)
	gain := gfProd/gfBench - 1
	if gain < 0.12 || gain > 0.18 {
		t.Errorf("8.0 ns clock gain = %.1f%%, paper anticipates ~15%%", gain*100)
	}
}
