package ncar

import (
	"errors"
	"fmt"
	"io"

	"sx4bench/internal/ccm2"
	"sx4bench/internal/fault"
	"sx4bench/internal/fftpack"
	"sx4bench/internal/kernels"
	"sx4bench/internal/mom"
	"sx4bench/internal/pop"
	"sx4bench/internal/prodload"
	"sx4bench/internal/target"
)

// Named failure modes of a resilient run. Callers test with errors.Is;
// every returned error wraps exactly one of these (or
// target.ErrMachineDown when the schedule kills the machine's last
// CPU) — a benchmark that cannot complete is reported, never silently
// skipped.
var (
	// ErrDeadlineExceeded reports that the benchmark's simulated
	// completion time passed the configured deadline.
	ErrDeadlineExceeded = errors.New("simulated deadline exceeded")
	// ErrRetriesExhausted reports that faults aborted every allowed
	// attempt.
	ErrRetriesExhausted = errors.New("retries exhausted")
)

// ResilientOpts configures a fault-tolerant benchmark run. The zero
// value runs fault-free with default retry policy and no deadline.
type ResilientOpts struct {
	// Injector is the fault schedule (nil = fault-free). Time zero of
	// the schedule is the benchmark's start.
	Injector fault.Injector
	// DeadlineSeconds bounds the simulated completion time; 0 means no
	// deadline.
	DeadlineSeconds float64
	// MaxAttempts caps the attempt count; 0 means DefaultMaxAttempts.
	MaxAttempts int
}

// Retry policy constants: exponential backoff doubling from
// BackoffBaseSeconds, capped at BackoffCapSeconds, all in simulated
// time.
const (
	DefaultMaxAttempts = 4
	BackoffBaseSeconds = 1.0
	BackoffCapSeconds  = 60.0
)

// ResilientResult describes how a resilient run completed.
type ResilientResult struct {
	Benchmark string
	Machine   string
	Attempts  int
	// FinishedAt is the simulated completion time, including aborted
	// attempts and backoff.
	FinishedAt float64
	// Degraded is the machine degradation in force during the
	// successful attempt.
	Degraded fault.Degradation
}

// RunResilient executes one suite member under a fault schedule: each
// attempt runs on the machine as degraded by the faults delivered so
// far, a CPU failure or job kill landing inside an attempt aborts it
// (checkpoint semantics: the retry pays a capped exponential backoff
// and starts over), and the benchmark output is produced by the
// attempt that completes. Fault times are interpreted relative to the
// benchmark's own start (t = 0), so per-benchmark timelines are
// independent and a multi-benchmark sweep stays deterministic.
func RunResilient(w io.Writer, m target.Target, name string, cpus int, opts ResilientOpts) (ResilientResult, error) {
	dm, res, err := runAttempts(m, name, cpus, opts)
	if err != nil {
		return res, err
	}
	if w != nil {
		if err := RunBenchmark(w, dm, name, cpus); err != nil {
			return res, err
		}
	}
	return res, nil
}

// runAttempts drives the retry loop shared by RunResilient and
// MeasureResilient: it returns the degraded machine of the attempt
// that survived the schedule alongside the attempt accounting, leaving
// what to do with that machine (render text, measure structurally) to
// the caller.
func runAttempts(m target.Target, name string, cpus int, opts ResilientOpts) (target.Target, ResilientResult, error) {
	res := ResilientResult{Benchmark: name, Machine: m.Name()}
	if _, err := ByName(name); err != nil {
		return nil, res, err
	}
	if cpus <= 0 {
		cpus = m.Spec().CPUs
	}
	maxAttempts := opts.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = DefaultMaxAttempts
	}
	inj := opts.Injector

	t := 0.0
	backoff := BackoffBaseSeconds
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		res.Attempts = attempt
		var d fault.Degradation
		if inj != nil {
			d = inj.DegradationAt(t)
		}
		dm, err := target.Degrade(m, d)
		if err != nil {
			return nil, res, fmt.Errorf("ncar: %s on %s at t=%s: %w",
				name, m.Name(), secs(t), err)
		}
		dur := AttemptSeconds(dm, name, cpus)
		if abortAt, aborted := firstAbort(inj, t, t+dur); aborted {
			// The fault checkpoints the attempt; retry after backoff.
			t = abortAt + backoff
			backoff *= 2
			if backoff > BackoffCapSeconds {
				backoff = BackoffCapSeconds
			}
			if opts.DeadlineSeconds > 0 && t > opts.DeadlineSeconds {
				return nil, res, fmt.Errorf("ncar: %s on %s: aborted at t=%s, next attempt past deadline %s: %w",
					name, m.Name(), secs(abortAt), secs(opts.DeadlineSeconds), ErrDeadlineExceeded)
			}
			continue
		}
		t += dur
		if opts.DeadlineSeconds > 0 && t > opts.DeadlineSeconds {
			return nil, res, fmt.Errorf("ncar: %s on %s: would finish at t=%s, deadline %s: %w",
				name, m.Name(), secs(t), secs(opts.DeadlineSeconds), ErrDeadlineExceeded)
		}
		res.FinishedAt = t
		res.Degraded = d
		return dm, res, nil
	}
	return nil, res, fmt.Errorf("ncar: %s on %s: %d attempts aborted by faults: %w",
		name, m.Name(), maxAttempts, ErrRetriesExhausted)
}

// firstAbort returns the time of the first attempt-killing fault in
// [from, to): a processor failure or a job kill. Bank and IOP events
// degrade the machine for subsequent attempts but do not abort a run
// in flight.
func firstAbort(inj fault.Injector, from, to float64) (float64, bool) {
	if inj == nil {
		return 0, false
	}
	for _, e := range inj.Window(from, to) {
		if e.Kind == fault.CPUFail || e.Kind == fault.JobKill {
			return e.At, true
		}
	}
	return 0, false
}

// AttemptSeconds models one attempt's simulated duration: the model
// evaluation the benchmark performs, scaled by its repetition
// convention. Correctness and I/O members run fixed nominal durations
// (their cost does not depend on the compute model). This is the
// number the resilient runner schedules with and the sx4d daemon
// reports as each member's ns/op.
func AttemptSeconds(m target.Target, name string, cpus int) float64 {
	opts1 := target.RunOpts{Procs: 1}
	switch name {
	case "PARANOIA", "ELEFUNT":
		return 1
	case "IO", "HIPPI", "NETWORK":
		return 30
	case "COPY":
		k := last(kernels.CopySweep(1))
		return 20 * m.RunCompiled(copyTrace(k), opts1).Seconds
	case "IA":
		k := last(kernels.IASweep(1))
		return 20 * m.RunCompiled(iaTrace(k), opts1).Seconds
	case "XPOSE":
		k := last(kernels.XposeSweep(1))
		return 20 * m.RunCompiled(xposeTrace(k), opts1).Seconds
	case "RFFT":
		const n = 1024
		return 5 * m.RunCompiled(rfftTrace(n, fftpack.RFFTInstances(n)), opts1).Seconds
	case "VFFT":
		return 5 * m.RunCompiled(vfftTrace(256, 500), opts1).Seconds
	case "RADABS":
		// Nominal RADABS work at the machine's achieved rate.
		return 10_000 / RADABSMFlops(m)
	case "PRODLOAD":
		return prodload.Run(m).TotalSeconds
	case "CCM2":
		t42, _ := ccm2.ResolutionByName("T42L18")
		return ccm2.SimDays(m, t42, 1, cpus, cpus)
	case "MOM":
		return 15_000 / mom.SustainedMFLOPS(m)
	case "POP":
		return m.RunCompiled(popTrace(pop.TwoDegree), opts1).Seconds * 100
	}
	return 1
}

// secs renders a simulated time for error messages.
func secs(t float64) string { return fmt.Sprintf("%.2fs", t) }
