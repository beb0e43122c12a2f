// Package sx4bench reproduces "Architecture and Application: The
// Performance of the NEC SX-4 on the NCAR Benchmark Suite" (Hammond,
// Loft & Tannenbaum, SC'96): a calibrated performance model of the NEC
// SX-4 parallel vector supercomputer, full implementations of the NCAR
// Benchmark Suite's thirteen kernels and three geophysical applications
// (CCM2-style spectral climate model, MOM rigid-lid and POP
// free-surface ocean models), the comparison benchmarks the paper
// discusses (LINPACK, HINT, STREAM, NAS-style kernels), and runners
// that regenerate every table and figure in the paper's evaluation.
//
// This file is the curated facade over the internal packages; see
// DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-model numbers.
package sx4bench

import (
	"fmt"
	"io"

	"sx4bench/internal/core"
	"sx4bench/internal/core/sched"
	"sx4bench/internal/fault"
	"sx4bench/internal/machine"
	"sx4bench/internal/ncar"
	"sx4bench/internal/serve"
	"sx4bench/internal/sx4"
	"sx4bench/internal/target"
)

// Machine is the SX-4 performance model (see internal/sx4).
type Machine = sx4.Machine

// Config describes an SX-4 system configuration.
type Config = sx4.Config

// Target is the machine-agnostic execution interface every modeled
// system satisfies (see internal/target). Lookup resolves a registry
// name ("ymp", "sx4-32", ...) to a fresh instance; Machines lists the
// registered names in canonical cross-machine column order.
type Target = target.Target

// Lookup resolves a registered machine name to a fresh Target.
func Lookup(name string) (Target, error) { return target.Lookup(name) }

// Machines returns the registered machine names in canonical order.
func Machines() []string { return target.All() }

// Table and Figure are rendered experiment results.
type (
	Table  = core.Table
	Figure = core.Figure
)

// Benchmarked returns the system measured in the paper: an SX-4/32
// with the 9.2 ns pre-production clock (Table 2).
func Benchmarked() *Machine { return machine.SX4Benchmarked() }

// Production returns an SX-4 with the production 8.0 ns clock, cpus
// processors per node and the given node count (joined by the IXS).
func Production(cpus, nodes int) *Machine { return machine.SX4Production(cpus, nodes) }

// Experiments lists the regenerable experiment identifiers.
func Experiments() []string {
	return []string{
		"table1", "table2", "table3", "table4", "table5", "table6", "table7",
		"fig5", "fig6", "fig7", "fig8",
		"radabs", "pop", "prodload", "correctness", "io",
		"multinode", "report", "profile", "crossmachine", "resilience",
		"serve", "capacity",
	}
}

// RunExperiment regenerates one paper experiment by identifier and
// writes it as text to w. A nil target is an error, before any output.
func RunExperiment(w io.Writer, m Target, id string) error {
	if m == nil {
		return fmt.Errorf("sx4bench: nil target for experiment %q", id)
	}
	switch id {
	case "table1":
		return core.WriteTable(w, ncar.Table1())
	case "table2":
		return core.WriteTable(w, ncar.Table2())
	case "table3":
		return core.WriteTable(w, ncar.Table3(m))
	case "table4":
		return core.WriteTable(w, ncar.Table4())
	case "table5":
		return core.WriteTable(w, ncar.Table5(m))
	case "table6":
		return core.WriteTable(w, ncar.Table6(m))
	case "table7":
		return core.WriteTable(w, ncar.Table7(m))
	case "fig5":
		return core.WriteFigure(w, ncar.Fig5(m, 4))
	case "fig6":
		return core.WriteFigure(w, ncar.Fig6(m))
	case "fig7":
		return core.WriteFigure(w, ncar.Fig7(m))
	case "fig8":
		return core.WriteFigure(w, ncar.Fig8(m))
	case "radabs":
		_, err := fmt.Fprintf(w, "RADABS (SX-4/1): %.1f Cray Y-MP equivalent MFLOPS (paper: 865.9)\n",
			ncar.RADABSMFlops(m))
		return err
	case "pop":
		_, err := fmt.Fprintf(w, "POP 2-degree (SX-4/1): %.0f MFLOPS (paper: 537)\n", ncar.POPMFlops(m))
		return err
	case "prodload":
		return ncar.WriteProdload(w, m)
	case "correctness":
		return ncar.WriteCorrectness(w)
	case "io":
		r := ncar.RunIOCategory()
		if err := ncar.WriteIO(w, r); err != nil {
			return err
		}
		for _, c := range r.Concurrent {
			if _, err := fmt.Fprintf(w, "IO %2d writers: CPU-blocked %6.2f s, on disk after %6.2f s\n",
				c.Writers, c.CPUSeconds, c.DiskSeconds); err != nil {
				return err
			}
		}
		return nil
	case "multinode":
		for _, res := range []string{"T42L18", "T170L18"} {
			tab, err := ncar.MultiNodeTable(m, res)
			if err != nil {
				return err
			}
			if err := core.WriteTable(w, tab); err != nil {
				return err
			}
		}
		return nil
	case "report":
		return ncar.WriteReport(w, m)
	case "crossmachine":
		tab, err := ncar.CrossMachineTable()
		if err != nil {
			return err
		}
		return core.WriteTable(w, tab)
	case "resilience":
		tab, err := ncar.ResilienceTable(fault.Canonical())
		if err != nil {
			return err
		}
		return core.WriteTable(w, tab)
	case "serve":
		// The canonical sx4d response body: what POST /v1/run returns
		// for the full suite on the flagship configuration. m is unused
		// — the daemon resolves machines through the registry, and the
		// artifact pins the wire bytes, not a particular instance.
		//
		//sx4lint:ignore detflow the selects in serve gate execution scheduling (semaphore vs ctx) only; the response bytes are content-addressed, cached by fingerprint, and pinned by the serve golden
		return serve.RenderCanonical(w)
	case "capacity":
		// The canonical fleet capacity Monte Carlo. m is unused — the
		// fleet is resolved from the registry by specification string,
		// and the table is byte-identical for every worker count.
		tab, err := ncar.CapacityTable()
		if err != nil {
			return err
		}
		return core.WriteTable(w, tab)
	case "profile":
		for _, res := range []string{"T42L18", "T170L18"} {
			tab, err := ncar.ProfileTable(m, res, m.Spec().CPUs)
			if err != nil {
				return err
			}
			if err := core.WriteTable(w, tab); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("sx4bench: unknown experiment %q (known: %v)", id, Experiments())
}

// RunAll regenerates every experiment in order, fanning the work
// across runtime.GOMAXPROCS(0) workers. The output stream is
// byte-identical to running the experiments serially.
func RunAll(w io.Writer, m Target) error {
	return RunAllWorkers(w, m, 0)
}

// RunAllWorkers is RunAll with an explicit worker count (the repo
// convention: 0 means GOMAXPROCS, 1 the plain serial loop). Every
// experiment's output is buffered and emitted in the canonical
// Experiments() order, so the stream is byte-identical for every
// worker count; an experiment's error does not cancel the others, and
// the first failing experiment (in order) determines where the stream
// stops and which error is returned — exactly the serial behaviour. A
// nil target fails the first experiment before any output.
func RunAllWorkers(w io.Writer, m Target, workers int) error {
	if m == nil {
		return RunExperiment(w, nil, Experiments()[0])
	}
	var tasks []sched.Task
	for _, id := range Experiments() {
		tasks = append(tasks, sched.Task{ID: id, Run: func(tw io.Writer) error {
			if _, err := fmt.Fprintf(tw, "\n=== %s ===\n", id); err != nil {
				return err
			}
			return RunExperiment(tw, m, id)
		}})
	}
	return sched.Stream(w, workers, tasks)
}
