package ncar

import (
	"fmt"
	"io"

	"sx4bench/internal/ccm2"
	"sx4bench/internal/core"
	"sx4bench/internal/hint"
	"sx4bench/internal/mom"
	"sx4bench/internal/target"
)

// CrossMachineTable runs the whole NCAR suite over every machine in the
// registry and renders the paper-style comparison: one row per suite
// member (plus HINT, placed beside RADABS so the ranking inversion the
// paper criticizes is visible in one glance), one column per machine in
// canonical registration order. Each member cell is a headline number
// of the evaluation Measure reports — one deterministic model run, no
// KTRIES jitter — so the table is byte-exact and golden-pinned.
//
// Category conventions:
//
//   - PARANOIA and ELEFUNT probe the host's floating-point arithmetic,
//     not the timing models, so every column reads "host".
//   - The memory kernels report MB/s at the largest-N point of each
//     sweep (one long stream: the bandwidth-limited regime).
//   - The I/O rows (IO, HIPPI, NETWORK) require the machine to have a
//     modeled I/O subsystem; the comparison systems were benchmarked
//     compute-only (Spec().DiskBytesPerSec == 0) and read "n/a".
//   - CCM2 runs at each machine's full CPU count; MOM and POP are the
//     single-processor numbers the paper quotes.
func CrossMachineTable() (core.Table, error) {
	names := target.All()
	t := core.Table{
		ID:      "crossmachine",
		Title:   "NCAR Benchmark Suite across the modeled machines",
		Headers: []string{"Benchmark"},
	}
	targets := make([]target.Target, 0, len(names))
	for _, name := range names {
		tgt, err := target.Shared(name)
		if err != nil {
			return core.Table{}, fmt.Errorf("ncar: cross-machine sweep: %w", err)
		}
		targets = append(targets, tgt)
		t.Headers = append(t.Headers, tgt.Name())
	}

	// row appends one benchmark row, evaluating cell on each target.
	row := func(label string, cell func(tgt target.Target) string) {
		cells := []string{label}
		for _, tgt := range targets {
			cells = append(cells, cell(tgt))
		}
		t.Rows = append(t.Rows, cells)
	}
	for _, b := range Suite() {
		if b.Category == Correctness {
			row(b.Name, func(target.Target) string { return "host" })
			continue
		}
		r := crossMachineRows[b.Name]
		row(r.label, func(tgt target.Target) string {
			// headline, not evaluate: a cell needs the rate, not a
			// Metrics map allocated per cell.
			_, unit, rate := headline(tgt, b, tgt.Spec().CPUs)
			if unit == "" {
				return "n/a" // an I/O member on a machine without a disk subsystem
			}
			return core.Fixed(rate, r.prec)
		})
		if b.Name == "RADABS" {
			row("HINT (MQUIPS)", func(tgt target.Target) string {
				return core.Fixed(hint.ModelMQUIPS(tgt.Scalar()), 1)
			})
		}
	}
	return t, nil
}

// crossMachineRows gives each measured suite member's row label and the
// decimal places of its cells.
var crossMachineRows = map[string]struct {
	label string
	prec  int
}{
	"COPY":     {"COPY (MB/s)", 1},
	"IA":       {"IA (MB/s)", 1},
	"XPOSE":    {"XPOSE (MB/s)", 1},
	"RFFT":     {"RFFT (MFLOPS)", 1},
	"VFFT":     {"VFFT (MFLOPS)", 1},
	"RADABS":   {"RADABS (MFLOPS)", 1},
	"IO":       {"IO (MB/s)", 1},
	"HIPPI":    {"HIPPI (MB/s)", 1},
	"NETWORK":  {"NETWORK (MB/s)", 2},
	"PRODLOAD": {"PRODLOAD (min)", 1},
	"CCM2":     {"CCM2 T42L18 (GFLOPS)", 2},
	"MOM":      {"MOM (MFLOPS)", 1},
	"POP":      {"POP (MFLOPS)", 1},
}

// last returns the final element of a sweep.
func last[T any](s []T) T { return s[len(s)-1] }

// ShortSummary writes one line of scalar anchors for a machine: the
// suite numbers cheap enough to sweep across every registered machine
// as a CI smoke test (ncarbench -machine all -short).
func ShortSummary(w io.Writer, m target.Target) error {
	if m == nil {
		return fmt.Errorf("ncar: nil target for short summary")
	}
	t42, _ := ccm2.ResolutionByName("T42L18")
	cpus := m.Spec().CPUs
	_, err := fmt.Fprintf(w,
		"%-16s RADABS %7.1f MFLOPS  HINT %4.1f MQUIPS  MOM %6.1f MFLOPS  POP %6.1f MFLOPS  CCM2(T42,%d cpus) %.2f GFLOPS\n",
		m.Name(), RADABSMFlops(m), hint.ModelMQUIPS(m.Scalar()),
		mom.SustainedMFLOPS(m), POPMFlops(m), cpus, ccm2.SustainedGFLOPS(m, t42, cpus))
	return err
}
