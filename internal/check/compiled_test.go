package check

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"sx4bench/internal/machine"
	"sx4bench/internal/sx4"
	"sx4bench/internal/sx4/prog"
	"sx4bench/internal/target"
)

// The compiled-trace differential suite: the interpreted engine
// (Interpret, which production code never calls) is the oracle, and
// every property below pins the one production route — the per-machine
// compiled-trace cache and the flat walk — to be bit-identical to it,
// over the same randomized (config, program, opts) cases the
// metamorphic suite uses.

// TestQuickCompiledBitIdentical: on a cache-cold machine, Run (the
// compiled route) and Interpret must agree bit for bit on randomized
// traces — Clocks, Seconds, Flops, Words, and every phase record.
func TestQuickCompiledBitIdentical(t *testing.T) {
	for i, data := range randCases(120) {
		cfg, p, opts := DecodeCase(data)
		m := sx4.New(cfg)
		rc := m.Run(p, opts)
		ri := m.Interpret(p, opts)
		if !reflect.DeepEqual(rc, ri) {
			t.Errorf("case %d: compiled run differs from interpreted: %+v vs %+v", i, rc, ri)
		}
	}
}

// TestQuickRunCompiledMatchesRun: the RunCompiled entry point (a
// pre-flattened trace with its stamped fingerprint) must agree with
// Run on the source program, on the same machine — the two entry
// points share one compiled-trace cache, so any divergence would
// poison it.
func TestQuickRunCompiledMatchesRun(t *testing.T) {
	for i, data := range randCases(80) {
		cfg, p, opts := DecodeCase(data)
		c, err := prog.Compile(p)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		m := sx4.New(cfg)
		viaRun := m.Run(p, opts)
		viaCompiled := m.RunCompiled(c, opts)
		if !reflect.DeepEqual(viaRun, viaCompiled) {
			t.Errorf("case %d: RunCompiled differs from Run: %+v vs %+v", i, viaRun, viaCompiled)
		}
		// And cache-cold in the opposite order on a fresh machine.
		m2 := sx4.New(cfg)
		viaCompiled2 := m2.RunCompiled(c, opts)
		if !reflect.DeepEqual(viaRun, viaCompiled2) {
			t.Errorf("case %d: cache-cold RunCompiled differs from Run: %+v vs %+v",
				i, viaRun, viaCompiled2)
		}
	}
}

// TestQuickWorkstationCompiledBitIdentical: the workstation models
// carry the same compiled/interpreted pair; both entry points must
// agree with Interpret on randomized traces.
func TestQuickWorkstationCompiledBitIdentical(t *testing.T) {
	ctors := []func() *machine.Workstation{machine.SunSparc20, machine.IBMRS6000590}
	for i, data := range randCases(60) {
		p := DecodeProgram(data)
		c, err := prog.Compile(p)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		for _, ctor := range ctors {
			compiled := ctor()
			rc := compiled.Run(p, target.RunOpts{Procs: 1})
			ri := compiled.Interpret(p, target.RunOpts{Procs: 1})
			if !reflect.DeepEqual(rc, ri) {
				t.Errorf("case %d (%s): compiled differs from interpreted: %+v vs %+v",
					i, compiled.Name(), rc, ri)
			}
			rcc := compiled.RunCompiled(c, target.RunOpts{Procs: 1})
			if !reflect.DeepEqual(rc, rcc) {
				t.Errorf("case %d (%s): RunCompiled differs from Run: %+v vs %+v",
					i, compiled.Name(), rc, rcc)
			}
		}
	}
}

// TestCompiledConcurrentReuse: many goroutines hammer one machine with
// a mix of Run and RunCompiled over a small program set, so the
// compiled-trace cache's first-store-wins path and the shared
// *compiledProgram values all see real concurrent reuse.
// Every goroutine must observe results identical to a serial oracle;
// `go test -race ./internal/check` (CI's race-full) makes this a
// data-race proof, not just an equality check.
func TestCompiledConcurrentReuse(t *testing.T) {
	cases := randCases(16)
	type unit struct {
		p    prog.Program
		c    *prog.Compiled
		opts sx4.RunOpts
		want sx4.Result
	}
	cfg := sx4.Benchmarked()
	oracle := sx4.New(cfg)
	units := make([]unit, len(cases))
	for i, data := range cases {
		_, p, opts := DecodeCase(data)
		units[i] = unit{p: p, c: prog.MustCompile(p), opts: opts, want: oracle.Interpret(p, opts)}
	}

	shared := sx4.New(cfg)
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 50; rep++ {
				u := &units[(g+rep)%len(units)]
				var got sx4.Result
				if (g+rep)%2 == 0 {
					got = shared.Run(u.p, u.opts)
				} else {
					got = shared.RunCompiled(u.c, u.opts)
				}
				if !reflect.DeepEqual(got, u.want) {
					errs[g] = &mismatchError{g: g, rep: rep}
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

type mismatchError struct{ g, rep int }

func (e *mismatchError) Error() string {
	return fmt.Sprintf("goroutine %d rep %d: concurrent compiled run diverged from serial oracle", e.g, e.rep)
}
