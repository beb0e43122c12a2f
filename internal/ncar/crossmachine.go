package ncar

import (
	"fmt"
	"io"

	"sx4bench/internal/ccm2"
	"sx4bench/internal/core"
	"sx4bench/internal/fftpack"
	"sx4bench/internal/hint"
	"sx4bench/internal/iobench"
	"sx4bench/internal/kernels"
	"sx4bench/internal/mom"
	"sx4bench/internal/prodload"
	"sx4bench/internal/sx4/iop"
	"sx4bench/internal/target"
)

// CrossMachineTable runs the whole NCAR suite over every machine in the
// registry and renders the paper-style comparison: one row per suite
// member (plus HINT, placed beside RADABS so the ranking inversion the
// paper criticizes is visible in one glance), one column per machine in
// canonical registration order. Everything is a single deterministic
// model evaluation — no KTRIES jitter — so the table is byte-exact and
// golden-pinned.
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
		tgt, err := sharedTarget(name)
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
	// ioRow gates an I/O-category value on a modeled disk subsystem.
	ioRow := func(label string, cell func(tgt target.Target) string) {
		row(label, func(tgt target.Target) string {
			if tgt.Spec().DiskBytesPerSec <= 0 {
				return "n/a"
			}
			return cell(tgt)
		})
	}
	host := func(target.Target) string { return "host" }
	opts1 := target.RunOpts{Procs: 1}

	row("PARANOIA", host)
	row("ELEFUNT", host)

	copyK := last(kernels.CopySweep(1))
	row("COPY (MB/s)", func(tgt target.Target) string {
		r := tgt.RunCompiled(copyTrace(copyK), opts1)
		return fmt.Sprintf("%.1f", float64(copyK.PayloadBytes())/r.Seconds/1e6)
	})
	iaK := last(kernels.IASweep(1))
	row("IA (MB/s)", func(tgt target.Target) string {
		r := tgt.RunCompiled(iaTrace(iaK), opts1)
		return fmt.Sprintf("%.1f", float64(iaK.PayloadBytes())/r.Seconds/1e6)
	})
	xpK := last(kernels.XposeSweep(1))
	row("XPOSE (MB/s)", func(tgt target.Target) string {
		r := tgt.RunCompiled(xposeTrace(xpK), opts1)
		return fmt.Sprintf("%.1f", float64(xpK.PayloadBytes())/r.Seconds/1e6)
	})

	const rfftN = 1024
	rfftM := fftpack.RFFTInstances(rfftN)
	row("RFFT (MFLOPS)", func(tgt target.Target) string {
		r := tgt.RunCompiled(rfftTrace(rfftN, rfftM), opts1)
		return fmt.Sprintf("%.1f", fftpack.NominalMFLOPS(rfftN, rfftM, r.Seconds))
	})
	const vfftN, vfftM = 256, 500
	row("VFFT (MFLOPS)", func(tgt target.Target) string {
		r := tgt.RunCompiled(vfftTrace(vfftN, vfftM), opts1)
		return fmt.Sprintf("%.1f", fftpack.NominalMFLOPS(vfftN, vfftM, r.Seconds))
	})

	row("RADABS (MFLOPS)", func(tgt target.Target) string {
		return fmt.Sprintf("%.1f", RADABSMFlops(tgt))
	})
	row("HINT (MQUIPS)", func(tgt target.Target) string {
		return fmt.Sprintf("%.1f", hint.ModelMQUIPS(tgt.Scalar()))
	})

	// The I/O category runs on the node's IOP subsystem; its geometry is
	// shared by every disk-bearing configuration, so the sweep runs once.
	sub := iop.New()
	t63, _ := ccm2.ResolutionByName("T63L18")
	histMBps := iobench.RunHistoryWrite(sub.DiskArray, t63).MBps
	hippi := last(iobench.HIPPISweep(sub, 256<<20)).AggregateMBps
	var netMBps float64
	for _, n := range iobench.RunNetwork(iobench.NewFDDI(), iobench.StandardScript()) {
		if n.MBps > netMBps {
			netMBps = n.MBps
		}
	}
	ioRow("IO (MB/s)", func(target.Target) string { return fmt.Sprintf("%.1f", histMBps) })
	ioRow("HIPPI (MB/s)", func(target.Target) string { return fmt.Sprintf("%.1f", hippi) })
	ioRow("NETWORK (MB/s)", func(target.Target) string { return fmt.Sprintf("%.2f", netMBps) })

	row("PRODLOAD (min)", func(tgt target.Target) string {
		return fmt.Sprintf("%.1f", prodload.Run(tgt).TotalMinutes())
	})

	t42, _ := ccm2.ResolutionByName("T42L18")
	row("CCM2 T42L18 (GFLOPS)", func(tgt target.Target) string {
		return fmt.Sprintf("%.2f", ccm2.SustainedGFLOPS(tgt, t42, tgt.Spec().CPUs))
	})
	row("MOM (MFLOPS)", func(tgt target.Target) string {
		return fmt.Sprintf("%.1f", mom.SustainedMFLOPS(tgt))
	})
	row("POP (MFLOPS)", func(tgt target.Target) string {
		return fmt.Sprintf("%.1f", POPMFlops(tgt))
	})
	return t, nil
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
