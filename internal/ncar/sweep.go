package ncar

import (
	"fmt"
	"hash/fnv"
	"math"

	"sx4bench/internal/ccm2"
	"sx4bench/internal/core/sched"
	"sx4bench/internal/fftpack"
	"sx4bench/internal/kernels"
	"sx4bench/internal/mom"
	"sx4bench/internal/radabs"
	"sx4bench/internal/sx4/prog"
	"sx4bench/internal/target"
)

// The cold-sweep driver: the scaling workload behind the compiled-trace
// work. A sweep is a large set of pairwise-distinct (machine, trace,
// allocation) scenarios executed against fresh machine instances, so
// no result is ever computed twice, and trace compilation is what pays:
// each machine lowers each distinct trace once into its compiled-trace
// cache and reuses the timing invariants across every processor
// allocation.

// SweepScenario is one cold-sweep unit: a benchmark trace executed on
// one registered machine under one processor allocation.
type SweepScenario struct {
	// Machine is the registry name (target.All order).
	Machine string
	// Compiled is the operation trace to time, pre-flattened and
	// shared by every scenario over the same trace.
	Compiled *prog.Compiled
	// Opts is the processor allocation. Values beyond the machine's
	// CPU count clamp inside Run, as everywhere else.
	Opts target.RunOpts
}

// sweepAllocs is the number of distinct processor allocations each
// (machine, trace) pair is swept over: the allocation varies while the
// compiled trace is reused.
const sweepAllocs = 32

// SweepScenarios deterministically builds n scenarios across every
// registered machine. Scenario i is a pure function of i — kernel
// family, problem size and processor allocation all derive
// arithmetically from the index — so every process, worker count and
// run enumerates the identical set, and the (machine, trace,
// allocation) triples are pairwise distinct for n up to
// machines × traces × sweepAllocs: a guaranteed cold sweep.
func SweepScenarios(n int) []SweepScenario {
	machines := target.All()
	if n <= 0 || len(machines) == 0 {
		return nil
	}
	perTrace := len(machines) * sweepAllocs
	traces := sweepTraces((n + perTrace - 1) / perTrace)
	compiled := make([]*prog.Compiled, len(traces))
	for i, t := range traces {
		compiled[i] = prog.MustCompile(t)
	}
	out := make([]SweepScenario, n)
	for i := range out {
		m := i % len(machines)
		t := (i / len(machines)) % len(traces)
		v := i / (len(machines) * len(traces)) // allocation variant
		procs := 1 + (v*5)%32
		out[i] = SweepScenario{
			Machine:  machines[m],
			Compiled: compiled[t],
			Opts: target.RunOpts{
				Procs:      procs,
				ActiveCPUs: procs + (v%3)*(procs/2),
			},
		}
	}
	return out
}

// sweepTraces builds k distinct scenario programs. Each is a
// composite "suite mix": a radiation block (the RADABS long-basic-
// block loop, repeated over a band count that varies by index, the way
// the radiation code sweeps spectral bands), one model step (CCM2,
// MOM or a VFFT batch), and one memory kernel — so a single scenario
// carries a few hundred ops, like the real benchmark drivers' traces,
// while the compiled walk stays O(loops).
// Every shape parameter derives arithmetically from the index; the
// distinct program names guarantee distinct fingerprints.
func sweepTraces(k int) []prog.Program {
	if k < 1 {
		k = 1
	}
	out := make([]prog.Program, k)
	for t := 0; t < k; t++ {
		var phases []prog.Phase
		// The radiation block: the RADABS pair loop with its body
		// unrolled over the band count, one long basic block per trip —
		// the shape the paper calls out for the radiation code. Each
		// machine compiles its ops once; every run then costs one loop
		// record regardless.
		radLoop := radabs.Trace(8+(t*7)%56, 10+t%12).Phases[0].Loops[0]
		bands := 8 + t%9
		body := make([]prog.Op, 0, len(radLoop.Body)*bands)
		for band := 0; band < bands; band++ {
			body = append(body, radLoop.Body...)
		}
		phases = append(phases, prog.Phase{
			Name: "radabs-bands", Parallel: true,
			Loops: []prog.Loop{{Trips: radLoop.Trips, Body: body}},
		})
		switch t % 3 {
		case 0:
			phases = append(phases, ccm2.StepTrace(ccm2.Resolutions[t%len(ccm2.Resolutions)]).Phases...)
		case 1:
			cfg := mom.LowRes
			if t%2 == 1 {
				cfg = mom.HighRes
			}
			phases = append(phases, mom.StepTrace(cfg).Phases...)
		default:
			phases = append(phases, fftpack.VFFTTrace(64<<(t%4), 16+t%32).Phases...)
		}
		n := 32 + (t*t*7)%2000
		m := 1 + (t*13)%24
		var kern prog.Program
		switch t % 3 {
		case 0:
			kern = kernels.Copy{N: n, M: m}.Trace()
		case 1:
			kern = kernels.IA{N: n, M: m}.Trace()
		default:
			kern = kernels.Xpose{N: n, M: m}.Trace()
		}
		phases = append(phases, kern.Phases...)
		out[t] = prog.Program{Name: fmt.Sprintf("sweep-%d", t), Phases: phases}
	}
	return out
}

// SweepResult summarizes one cold sweep. Checksum folds every
// scenario's clock count in index order, so any divergence between
// worker counts is a one-word comparison.
type SweepResult struct {
	Scenarios int
	Clocks    float64
	Flops     int64
	Checksum  uint64
}

// sweepGrain batches scenario indexes per scheduling handoff; the
// per-scenario work is microseconds, so per-index handoffs would
// dominate at high worker counts.
const sweepGrain = 64

// Sweep executes the scenarios cold and returns the deterministic
// summary. Each call constructs fresh machine instances (cold
// compiled-trace caches); one instance per machine name is shared by
// all workers, so the run exercises the compiled-trace cache under
// real contention. workers follows the sched convention (0 =
// GOMAXPROCS, 1 = serial).
func Sweep(scenarios []SweepScenario, workers int) (SweepResult, error) {
	run := make(map[string]func(*prog.Compiled, target.RunOpts) target.Result)
	for _, s := range scenarios {
		if _, ok := run[s.Machine]; ok {
			continue
		}
		t, err := target.Lookup(s.Machine)
		if err != nil {
			return SweepResult{}, fmt.Errorf("ncar: sweep: %w", err)
		}
		run[s.Machine] = t.RunCompiled
	}
	clocks := make([]float64, len(scenarios))
	flops := make([]int64, len(scenarios))
	var res SweepResult
	err := sched.ForEachGrain(workers, len(scenarios), sweepGrain, func(i int) error {
		s := &scenarios[i]
		r := run[s.Machine](s.Compiled, s.Opts)
		clocks[i] = r.Clocks
		flops[i] = r.Flops
		return nil
	})
	if err != nil {
		return SweepResult{}, err
	}
	// Deterministic reduction: ForEachGrain filled clocks in index
	// order, so the fold — and therefore Checksum — is independent of
	// the worker count.
	h := fnv.New64a()
	var buf [8]byte
	for i, c := range clocks {
		res.Clocks += c
		res.Flops += flops[i]
		bits := math.Float64bits(c)
		for b := 0; b < 8; b++ {
			buf[b] = byte(bits >> (8 * b))
		}
		h.Write(buf[:])
	}
	res.Scenarios = len(scenarios)
	res.Checksum = h.Sum64()
	return res, nil
}
