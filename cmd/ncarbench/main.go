// Command ncarbench runs the NCAR Benchmark Suite (or a single named
// member) against any registered machine model and prints the results,
// following the paper's category structure.
//
// Usage:
//
//	ncarbench                          # list the suite
//	ncarbench -run COPY                # one benchmark on the SX-4/32
//	ncarbench -run all                 # the full suite
//	ncarbench -machine ymp -run RADABS # one benchmark on the Cray Y-MP
//	ncarbench -machine all -run all    # the suite on every machine
//	ncarbench -machine all -short      # one-line smoke sweep (CI)
//	ncarbench -run CCM2 -cpus 16
//	ncarbench -run RADABS -faults 1996 # under a seeded fault schedule
//	ncarbench -run all -faults sched.txt -deadline 600
//
// Fleet capacity planning (the multi-node Monte Carlo):
//
//	ncarbench -fleet sx4-32x2,c90                  # canonical 100-scenario plan
//	ncarbench -fleet sx4-32x4 -scenarios 1000      # bigger fleet, bigger sweep
//	ncarbench -fleet sx4-32,c90 -scenarios 240 -fleetseed 7 -workers 8
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"sx4bench"
	"sx4bench/internal/core"
	"sx4bench/internal/core/sched"
	"sx4bench/internal/fault"
	"sx4bench/internal/fleet"
	"sx4bench/internal/ncar"
)

// options collects the command's flags.
type options struct {
	machine   string
	benchmark string
	cpus      int
	workers   int
	short     bool

	// faults selects a schedule: empty (fault-free), a decimal seed
	// for a generated plan, or a schedule-file path.
	faults string
	// deadline bounds each benchmark's simulated completion time in
	// seconds; 0 means none.
	deadline float64
	// retries caps the attempts per benchmark; 0 means the default.
	retries int
	// cachestats prints each machine's compiled-trace cache counters
	// after its results.
	cachestats bool

	// fleet, when non-empty, switches to capacity-planning mode: a
	// Monte Carlo of week-long scenarios over the specified fleet.
	fleet     string
	scenarios int
	fleetseed int64
}

func main() {
	var o options
	flag.StringVar(&o.benchmark, "run", "", "benchmark name (see list), or 'all'")
	flag.StringVar(&o.machine, "machine", "sx4-32",
		fmt.Sprintf("machine to benchmark, or 'all' (known: %s)", strings.Join(sx4bench.Machines(), ", ")))
	flag.IntVar(&o.cpus, "cpus", 0, "processors for the application benchmarks (0 = the machine's full CPU count)")
	flag.IntVar(&o.workers, "workers", 0, "suite-level parallelism for -run all (0 = GOMAXPROCS, 1 = serial); output is identical either way")
	flag.BoolVar(&o.short, "short", false, "print one line of scalar anchors per machine instead of full results")
	flag.StringVar(&o.faults, "faults", "", "fault schedule: a seed for a generated plan, or a schedule-file path ('<at> <kind> <unit>' lines)")
	flag.Float64Var(&o.deadline, "deadline", 0, "simulated-seconds deadline per benchmark under -faults (0 = none)")
	flag.IntVar(&o.retries, "retries", 0, "max attempts per benchmark under -faults (0 = default)")
	flag.BoolVar(&o.cachestats, "cachestats", false, "print each machine's compiled-trace cache counters (hits, misses, entries) after its results")
	flag.StringVar(&o.fleet, "fleet", "", "fleet spec for capacity planning, e.g. 'sx4-32x2,c90' (registry names with optional xN replication)")
	flag.IntVar(&o.scenarios, "scenarios", 0, "Monte Carlo scenario count for -fleet (0 = the canonical 100)")
	flag.Int64Var(&o.fleetseed, "fleetseed", 0, "fleet seed every -fleet scenario derives from (0 = the canonical 1996)")
	flag.Parse()

	if err := runMain(os.Stdout, o); err != nil {
		fail(err)
	}
}

// runMain is the testable body of the command.
func runMain(w io.Writer, o options) error {
	if o.fleet != "" {
		return runCapacity(w, o)
	}
	if o.scenarios != 0 || o.fleetseed != 0 {
		return fmt.Errorf("-scenarios and -fleetseed need -fleet")
	}
	plan, err := loadFaults(o.faults)
	if err != nil {
		return err
	}
	targets, err := resolveTargets(o.machine)
	if err != nil {
		return err
	}
	if o.short {
		for _, tgt := range targets {
			if err := ncar.ShortSummary(w, tgt); err != nil {
				return err
			}
			if err := printCacheStats(w, tgt, o.cachestats); err != nil {
				return err
			}
		}
		return nil
	}
	benchmark := o.benchmark
	if benchmark == "" {
		// -machine all with no -run means the whole suite; a single
		// machine with no -run just lists the suite.
		if o.machine != "all" {
			list(w)
			return nil
		}
		benchmark = "all"
	}
	rop := ncar.ResilientOpts{
		Injector:        plan,
		DeadlineSeconds: o.deadline,
		MaxAttempts:     o.retries,
	}
	resilient := plan != nil || o.deadline > 0 || o.retries > 0
	for _, tgt := range targets {
		if len(targets) > 1 {
			if _, err := fmt.Fprintf(w, "\n===== %s =====\n", tgt.Name()); err != nil {
				return err
			}
		}
		if err := runOn(w, tgt, benchmark, o.cpus, o.workers, resilient, rop); err != nil {
			return err
		}
		if err := printCacheStats(w, tgt, o.cachestats); err != nil {
			return err
		}
	}
	return nil
}

// runCapacity answers one fleet capacity question: scenarios week-long
// Monte Carlo draws (arrival mixes × per-node fault plans × degraded
// fleets) over the specified fleet, printed as the capacity table. The
// output is byte-identical for every -workers value.
func runCapacity(w io.Writer, o options) error {
	scenarios := o.scenarios
	if scenarios == 0 {
		scenarios = fleet.DefaultScenarios
	}
	if scenarios < 0 {
		return fmt.Errorf("-scenarios %d must be positive", o.scenarios)
	}
	seed := o.fleetseed
	if seed == 0 {
		seed = fleet.DefaultSeed
	}
	tab, err := ncar.CapacityTableFor(o.fleet, scenarios, seed, o.workers)
	if err != nil {
		return err
	}
	return core.WriteTable(w, tab)
}

// printCacheStats reports a machine's compiled-trace cache counters
// when asked. A machine whose cache saw no lookups is skipped silently.
func printCacheStats(w io.Writer, tgt sx4bench.Target, enabled bool) error {
	if !enabled {
		return nil
	}
	st := tgt.CacheStats()
	if st.Hits+st.Misses == 0 && st.Entries == 0 {
		return nil
	}
	_, err := fmt.Fprintf(w, "cachestats %s: %s\n", tgt.Name(), st)
	return err
}

// loadFaults resolves the -faults value: empty means no plan, a
// decimal integer seeds a generated plan, anything else is read as a
// schedule file.
func loadFaults(arg string) (*fault.Plan, error) {
	if arg == "" {
		return nil, nil
	}
	if seed, err := strconv.ParseInt(arg, 10, 64); err == nil {
		return fault.NewPlan(seed, fault.CanonicalHorizon, fault.CanonicalEvents), nil
	}
	f, err := os.Open(arg)
	if err != nil {
		return nil, fmt.Errorf("-faults is neither a seed nor a readable schedule file: %w", err)
	}
	defer f.Close()
	plan, err := fault.Parse(f)
	if err != nil {
		return nil, fmt.Errorf("-faults %s: %w", arg, err)
	}
	return plan, nil
}

// resolveTargets maps a -machine value to the machines to benchmark.
func resolveTargets(machine string) ([]sx4bench.Target, error) {
	if machine == "all" {
		var targets []sx4bench.Target
		for _, name := range sx4bench.Machines() {
			tgt, err := sx4bench.Lookup(name)
			if err != nil {
				return nil, err
			}
			targets = append(targets, tgt)
		}
		return targets, nil
	}
	tgt, err := sx4bench.Lookup(machine)
	if err != nil {
		return nil, err
	}
	return []sx4bench.Target{tgt}, nil
}

// runOn runs one benchmark name (or the whole suite) on one machine.
// In resilient mode every benchmark runs under the fault schedule on
// its own simulated timeline (t = 0 at its start), so the output is
// deterministic for any -workers value; a benchmark that cannot
// complete reports its named error and fails the run.
func runOn(w io.Writer, tgt sx4bench.Target, benchmark string, cpus, workers int, resilient bool, rop ncar.ResilientOpts) error {
	one := func(tw io.Writer, name string) error {
		if !resilient {
			return ncar.RunBenchmark(tw, tgt, name, cpus)
		}
		res, err := ncar.RunResilient(tw, tgt, name, cpus, rop)
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(tw, "resilient: %s on %s: %d attempt(s), finished t=%.2fs (%s)\n",
			name, tgt.Name(), res.Attempts, res.FinishedAt, res.Degraded)
		return err
	}
	if benchmark != "all" {
		return one(w, benchmark)
	}
	var tasks []sched.Task
	for _, b := range ncar.Suite() {
		tasks = append(tasks, sched.Task{ID: b.Name, Run: func(tw io.Writer) error {
			if _, err := fmt.Fprintf(tw, "\n--- %s (%s) ---\n", b.Name, b.Category); err != nil {
				return err
			}
			return one(tw, b.Name)
		}})
	}
	return sched.Stream(w, workers, tasks)
}

func list(w io.Writer) {
	fmt.Fprintln(w, "The NCAR Benchmark Suite:")
	last := ncar.Category(-1)
	for _, b := range ncar.Suite() {
		if b.Category != last {
			fmt.Fprintf(w, "\n%s:\n", b.Category)
			last = b.Category
		}
		fmt.Fprintf(w, "  %-9s %s (KTRIES=%d)\n", b.Name, b.Description, b.KTries)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "ncarbench:", err)
	os.Exit(1)
}
