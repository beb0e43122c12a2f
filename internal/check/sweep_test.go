package check

import (
	"reflect"
	"testing"

	"sx4bench/internal/machine"
	"sx4bench/internal/ncar"
	"sx4bench/internal/sx4"
	"sx4bench/internal/sx4/prog"
	"sx4bench/internal/target"
)

// TestSweepCompiledMatchesInterpreted keeps the cold sweep's composite
// traces — RADABS band blocks, model steps and memory kernels on every
// registered machine — under the interpreted oracle: each scenario's
// RunCompiled result on a registry instance must equal that machine's
// Interpret of the source program, bit for bit.
func TestSweepCompiledMatchesInterpreted(t *testing.T) {
	insts := make(map[string]target.Target)
	for i, s := range ncar.SweepScenarios(600) {
		tgt, ok := insts[s.Machine]
		if !ok {
			tgt = target.MustLookup(s.Machine)
			insts[s.Machine] = tgt
		}
		p := source(t, s.Compiled)
		got := tgt.RunCompiled(s.Compiled, s.Opts)
		if want := interpret(t, tgt, p, s.Opts); !reflect.DeepEqual(got, want) {
			t.Fatalf("scenario %d (%s, %s, %+v): RunCompiled %+v != Interpret %+v",
				i, s.Machine, s.Compiled.Name, s.Opts, got, want)
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

// source rebuilds the program a compiled trace was flattened from. The
// scenarios carry only the compiled form; the rebuilt program must
// fingerprint identically to it, so the oracle interprets exactly the
// trace the compiled route timed.
func source(t *testing.T, c *prog.Compiled) prog.Program {
	t.Helper()
	p := prog.Program{Name: c.Name}
	for _, ph := range c.Phases {
		out := prog.Phase{
			Name: ph.Name, Parallel: ph.Parallel,
			Barriers: ph.Barriers, SerialClocks: ph.SerialClocks,
		}
		for _, l := range c.PhaseLoops(ph) {
			out.Loops = append(out.Loops, prog.Loop{Trips: l.Trips, Body: c.Body(l)})
		}
		p.Phases = append(p.Phases, out)
	}
	if fp := p.Fingerprint(); fp != c.Fingerprint {
		t.Fatalf("%s: rebuilt program fingerprints %#x, compiled trace %#x", c.Name, fp, c.Fingerprint)
	}
	return p
}
