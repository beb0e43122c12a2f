package ncar

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"sx4bench/internal/fault"
	"sx4bench/internal/sx4/prog"
	"sx4bench/internal/target"
)

// countingTarget counts model runs: every Run and RunCompiled call on
// the wrapped machine or on any machine degraded from it.
type countingTarget struct {
	target.Target
	runs *atomic.Int64
}

func counting(m target.Target) countingTarget { return countingTarget{m, new(atomic.Int64)} }

func (c countingTarget) Run(p prog.Program, opts target.RunOpts) target.Result {
	c.runs.Add(1)
	return c.Target.Run(p, opts)
}

func (c countingTarget) RunCompiled(cp *prog.Compiled, opts target.RunOpts) target.Result {
	c.runs.Add(1)
	return c.Target.RunCompiled(cp, opts)
}

func (c countingTarget) Degraded(d fault.Degradation) (target.Target, error) {
	dm, err := c.Target.Degraded(d)
	if err != nil {
		return nil, err
	}
	return countingTarget{dm, c.runs}, nil
}

// modelMembers are the suite members whose numbers come from a model
// run on the target; the other six read host or process-wide results
// (the correctness probe, the I/O rates, the prodload results cache).
var modelMembers = map[string]bool{
	"COPY": true, "IA": true, "XPOSE": true, "RFFT": true, "VFFT": true,
	"RADABS": true, "CCM2": true, "MOM": true, "POP": true,
}

func mustLookup(t *testing.T, name string) target.Target {
	t.Helper()
	m, err := target.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func canonicalFaults(seed int64) ResilientOpts {
	return ResilientOpts{Injector: fault.NewPlan(seed, fault.CanonicalHorizon, fault.CanonicalEvents)}
}

// TestMeasureRunsModelOnce pins one model run per member: the attempt
// duration and the headline rates come from the same run.
func TestMeasureRunsModelOnce(t *testing.T) {
	ctx := context.Background()
	m := mustLookup(t, "sx4-32")
	if _, err := MeasureSuite(ctx, m, nil, 0, 1); err != nil {
		t.Fatal(err)
	}
	c := counting(m)
	for _, b := range Suite() {
		c.runs.Store(0)
		if _, err := Measure(ctx, c, b.Name, 0); err != nil {
			t.Fatal(err)
		}
		want := int64(0)
		if modelMembers[b.Name] {
			want = 1
		}
		if got := c.runs.Load(); got != want {
			t.Errorf("Measure(%s) made %d model runs, want %d", b.Name, got, want)
		}
	}
}

// TestMeasureResilientRunsModelOncePerAttempt pins that the retry loop
// times each attempt with the evaluation it reports: no second
// measurement of the surviving machine.
func TestMeasureResilientRunsModelOncePerAttempt(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 8; seed++ {
		c := counting(mustLookup(t, "sx4-32"))
		for _, b := range Suite() {
			if !modelMembers[b.Name] {
				continue
			}
			name := b.Name
			c.runs.Store(0)
			rm, err := MeasureResilient(ctx, c, name, 0, canonicalFaults(seed))
			want := int64(rm.Attempts)
			if errors.Is(err, target.ErrMachineDown) {
				want-- // the last attempt found no machine to run on
			} else if err != nil {
				t.Fatalf("seed %d %s: %v", seed, name, err)
			}
			if got := c.runs.Load(); got != want {
				t.Errorf("seed %d %s: %d model runs for %d attempts, want %d", seed, name, got, rm.Attempts, want)
			}
		}
	}
}

// TestMeasureResilientMatchesMeasure pins the resilient measurement to
// the plain one on the surviving attempt's machine, and to plain
// Measure itself when nothing fails.
func TestMeasureResilientMatchesMeasure(t *testing.T) {
	ctx := context.Background()
	survived := 0
	for _, name := range target.All() {
		m := mustLookup(t, name)
		for _, b := range Suite() {
			plain, err := Measure(ctx, m, b.Name, 0)
			if err != nil {
				t.Fatal(err)
			}
			rm, err := MeasureResilient(ctx, m, b.Name, 0, ResilientOpts{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rm.Measurement, plain) || rm.Attempts != 1 || rm.FinishedAt != plain.Seconds {
				t.Errorf("%s %s fault-free: resilient %+v, plain %+v", name, b.Name, rm, plain)
			}
			for seed := int64(1); seed <= 8; seed++ {
				rm, err := MeasureResilient(ctx, m, b.Name, 0, canonicalFaults(seed))
				if err != nil {
					continue // no surviving attempt to compare
				}
				survived++
				dm, err := target.Degrade(m, rm.Degraded)
				if err != nil {
					t.Fatal(err)
				}
				want, err := Measure(ctx, dm, b.Name, 0)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(rm.Measurement, want) {
					t.Errorf("%s %s seed %d: resilient %+v, Measure on the degraded machine %+v",
						name, b.Name, seed, rm.Measurement, want)
				}
			}
		}
	}
	if survived == 0 {
		t.Fatal("no faulted measurement survived; the comparison checked nothing")
	}
}

// TestMeasureSuiteWorkerInvariant pins MeasureSuite, the path the
// daemon runs, to the serial answer at every worker count: each count
// measures the whole suite on a fresh instance, so its compiled-trace
// cache fills under that count's own interleaving.
func TestMeasureSuiteWorkerInvariant(t *testing.T) {
	ctx := context.Background()
	for _, name := range target.All() {
		serial, err := MeasureSuite(ctx, mustLookup(t, name), nil, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 8} {
			got, err := MeasureSuite(ctx, mustLookup(t, name), nil, 0, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, serial) {
				t.Errorf("%s workers=%d: %+v, serial %+v", name, workers, got, serial)
			}
		}
	}
}

// TestNilTargetErrors calls each measurement, runner and renderer
// entry point with a nil target: each must return an error before any
// output, not panic.
func TestNilTargetErrors(t *testing.T) {
	ctx := context.Background()
	var buf bytes.Buffer
	for _, tc := range []struct {
		name string
		call func() error
	}{
		{"Measure", func() error { _, err := Measure(ctx, nil, "RADABS", 0); return err }},
		{"MeasureSuite", func() error { _, err := MeasureSuite(ctx, nil, nil, 0, 1); return err }},
		{"MeasureResilient", func() error {
			_, err := MeasureResilient(ctx, nil, "RADABS", 0, ResilientOpts{})
			return err
		}},
		{"MeasureSuiteResilient", func() error {
			_, err := MeasureSuiteResilient(ctx, nil, nil, 0, 1, ResilientOpts{})
			return err
		}},
		{"RunBenchmark", func() error { return RunBenchmark(&buf, nil, "RADABS", 0) }},
		{"RunResilient", func() error { _, err := RunResilient(&buf, nil, "RADABS", 0, ResilientOpts{}); return err }},
		{"ShortSummary", func() error { return ShortSummary(&buf, nil) }},
		{"WriteReport", func() error { return WriteReport(&buf, nil) }},
		{"WriteProdload", func() error { return WriteProdload(&buf, nil) }},
		{"ProfileTable", func() error { _, err := ProfileTable(nil, "T42L18", 4); return err }},
		{"MultiNodeTable", func() error { _, err := MultiNodeTable(nil, "T170L18"); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.call(); err == nil {
				t.Errorf("%s(nil target) returned no error", tc.name)
			}
		})
	}
	if buf.Len() != 0 {
		t.Errorf("nil target wrote %d bytes of output", buf.Len())
	}
}
