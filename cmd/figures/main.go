// Command figures regenerates the paper's tables and figures from the
// model. Each experiment identifier maps to one table or figure of the
// evaluation section (see DESIGN.md for the index).
//
// Usage:
//
//	figures -exp table7            # one experiment
//	figures -exp all               # everything
//	figures -exp fig5 -csv         # CSV for plotting
//	figures -exp table5 -machine ymp
//	figures -exp crossmachine      # the whole suite on every machine
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"sx4bench"
	"sx4bench/internal/core"
	"sx4bench/internal/ncar"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (table1..table7, fig5..fig8, radabs, pop, prodload, correctness, io, multinode, report, profile, crossmachine, all)")
	machine := flag.String("machine", "sx4-32",
		fmt.Sprintf("machine to run the experiments on (known: %s)", strings.Join(sx4bench.Machines(), ", ")))
	csv := flag.Bool("csv", false, "emit CSV instead of text (figures and tables only)")
	plot := flag.Bool("plot", false, "render figures as ASCII log-log charts")
	workers := flag.Int("workers", 0, "experiment-level parallelism for -exp all (0 = GOMAXPROCS, 1 = serial); output is identical either way")
	cacheStats := flag.Bool("cachestats", false, "print machine-model timing-cache hit/miss counters to stderr on exit")
	flag.Parse()

	m, err := sx4bench.Lookup(*machine)
	if err != nil {
		fail(err)
	}
	if *cacheStats {
		defer func() {
			fmt.Fprintf(os.Stderr, "figures: timing cache %s\n", m.CacheStats())
		}()
	}
	if err := run(os.Stdout, m, *exp, *csv, *plot, *workers); err != nil {
		fail(err)
	}
}

// run is the testable body of the command.
func run(w io.Writer, m sx4bench.Target, exp string, csv, plot bool, workers int) error {
	if exp == "all" {
		return sx4bench.RunAllWorkers(w, m, workers)
	}
	if csv {
		return writeCSV(w, m, exp)
	}
	if plot {
		return writePlot(w, m, exp)
	}
	return sx4bench.RunExperiment(w, m, exp)
}

func writePlot(w io.Writer, m sx4bench.Target, exp string) error {
	var f sx4bench.Figure
	switch exp {
	case "fig5":
		f = ncar.Fig5(m, 4)
	case "fig6":
		f = ncar.Fig6(m)
	case "fig7":
		f = ncar.Fig7(m)
	case "fig8":
		f = ncar.Fig8(m)
	default:
		return fmt.Errorf("no plot form for %q", exp)
	}
	return core.WritePlot(w, f, 72, 22)
}

func writeCSV(w io.Writer, m sx4bench.Target, exp string) error {
	switch exp {
	case "fig5":
		return core.WriteFigureCSV(w, ncar.Fig5(m, 4))
	case "fig6":
		return core.WriteFigureCSV(w, ncar.Fig6(m))
	case "fig7":
		return core.WriteFigureCSV(w, ncar.Fig7(m))
	case "fig8":
		return core.WriteFigureCSV(w, ncar.Fig8(m))
	case "table1":
		return core.WriteTableCSV(w, ncar.Table1())
	case "table2":
		return core.WriteTableCSV(w, ncar.Table2())
	case "table3":
		return core.WriteTableCSV(w, ncar.Table3(m))
	case "table4":
		return core.WriteTableCSV(w, ncar.Table4())
	case "table5":
		return core.WriteTableCSV(w, ncar.Table5(m))
	case "table6":
		return core.WriteTableCSV(w, ncar.Table6(m))
	case "table7":
		return core.WriteTableCSV(w, ncar.Table7(m))
	case "crossmachine":
		tab, err := ncar.CrossMachineTable()
		if err != nil {
			return err
		}
		return core.WriteTableCSV(w, tab)
	}
	return fmt.Errorf("no CSV form for %q", exp)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "figures:", err)
	os.Exit(1)
}
