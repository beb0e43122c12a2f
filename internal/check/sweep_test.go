package check

import (
	"fmt"
	"reflect"
	"testing"

	"sx4bench/internal/ccm2"
	"sx4bench/internal/fftpack"
	"sx4bench/internal/kernels"
	"sx4bench/internal/machine"
	"sx4bench/internal/mom"
	"sx4bench/internal/radabs"
	"sx4bench/internal/sx4"
	"sx4bench/internal/sx4/prog"
	"sx4bench/internal/target"
)

// TestSweepCompiledMatchesInterpreted keeps the composite sweep traces
// — RADABS band blocks, model steps and memory kernels on every
// registered machine — under the interpreted oracle: each scenario's
// RunCompiled result on a registry instance must equal that machine's
// Interpret of the source program, bit for bit.
func TestSweepCompiledMatchesInterpreted(t *testing.T) {
	insts := make(map[string]target.Target)
	for i, s := range sweepScenarios(600) {
		tgt, ok := insts[s.machine]
		if !ok {
			tgt = target.MustLookup(s.machine)
			insts[s.machine] = tgt
		}
		// The oracle must interpret exactly the trace the compiled
		// route timed.
		if fp := s.program.Fingerprint(); fp != s.compiled.Fingerprint {
			t.Fatalf("%s: program fingerprints %#x, compiled trace %#x", s.program.Name, fp, s.compiled.Fingerprint)
		}
		got := tgt.RunCompiled(s.compiled, s.opts)
		if want := interpret(t, tgt, s.program, s.opts); !reflect.DeepEqual(got, want) {
			t.Fatalf("scenario %d (%s, %s, %+v): RunCompiled %+v != Interpret %+v",
				i, s.machine, s.program.Name, s.opts, got, want)
		}
	}
	if len(insts) != len(target.All()) {
		t.Errorf("sweep covered %d machines, registry has %d", len(insts), len(target.All()))
	}
}

// interpret runs the oracle of a registered engine. A new engine must
// be added here before its scenarios can pass.
func interpret(t *testing.T, tgt target.Target, p prog.Program, opts target.RunOpts) target.Result {
	t.Helper()
	switch m := tgt.(type) {
	case *sx4.Machine:
		return m.Interpret(p, opts)
	case *machine.Vector:
		return m.Interpret(p, opts)
	case *machine.Workstation:
		return m.Interpret(p, opts)
	}
	t.Fatalf("%s (%T): no interpreted oracle", tgt.Name(), tgt)
	return target.Result{}
}

// sweepScenario is one composite differential case: a trace run on one
// registered machine under one processor allocation.
type sweepScenario struct {
	machine  string // registry name, in target.All order
	program  prog.Program
	compiled *prog.Compiled // program, flattened once and shared
	opts     target.RunOpts // values beyond the CPU count clamp inside Run
}

// sweepAllocs is the number of processor allocations each (machine,
// trace) pair is swept over.
const sweepAllocs = 32

// sweepScenarios deterministically builds n scenarios across every
// registered machine. Scenario i is a pure function of i — kernel
// family, problem size and processor allocation all derive
// arithmetically from the index — and the (machine, trace, allocation)
// triples are pairwise distinct for n up to machines × traces ×
// sweepAllocs.
func sweepScenarios(n int) []sweepScenario {
	machines := target.All()
	perTrace := len(machines) * sweepAllocs
	traces := sweepTraces((n + perTrace - 1) / perTrace)
	compiled := make([]*prog.Compiled, len(traces))
	for i, p := range traces {
		compiled[i] = prog.MustCompile(p)
	}
	out := make([]sweepScenario, n)
	for i := range out {
		m := i % len(machines)
		t := (i / len(machines)) % len(traces)
		v := i / (len(machines) * len(traces)) // allocation variant
		procs := 1 + (v*5)%32
		out[i] = sweepScenario{
			machine:  machines[m],
			program:  traces[t],
			compiled: compiled[t],
			opts: target.RunOpts{
				Procs:      procs,
				ActiveCPUs: procs + (v%3)*(procs/2),
			},
		}
	}
	return out
}

// sweepTraces builds k distinct scenario programs. Each is a composite
// "suite mix": a radiation block (the RADABS long-basic-block loop,
// repeated over a band count that varies by index, the way the
// radiation code sweeps spectral bands), one model step (CCM2, MOM or
// a VFFT batch), and one memory kernel — so a single scenario carries
// a few hundred ops, like the real benchmark drivers' traces. Every
// shape parameter derives arithmetically from the index; the distinct
// program names guarantee distinct fingerprints.
func sweepTraces(k int) []prog.Program {
	out := make([]prog.Program, k)
	for t := 0; t < k; t++ {
		radLoop := radabs.Trace(8+(t*7)%56, 10+t%12).Phases[0].Loops[0]
		bands := 8 + t%9
		body := make([]prog.Op, 0, len(radLoop.Body)*bands)
		for band := 0; band < bands; band++ {
			body = append(body, radLoop.Body...)
		}
		phases := []prog.Phase{{
			Name: "radabs-bands", Parallel: true,
			Loops: []prog.Loop{{Trips: radLoop.Trips, Body: body}},
		}}
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
