package ncar

import (
	"errors"
	"fmt"
	"io"

	"sx4bench/internal/fault"
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
	Injector *fault.Plan
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

// ResilientMeasurement describes how a resilient run completed: the
// structured result of the attempt that survived and the fault-schedule
// outcome that produced it.
type ResilientMeasurement struct {
	Measurement Measurement
	// Attempts counts every attempt, aborted ones included. It is set
	// on error too: the attempt that failed is the last one counted.
	Attempts int
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
func RunResilient(w io.Writer, m target.Target, name string, cpus int, opts ResilientOpts) (ResilientMeasurement, error) {
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
// MeasureResilient. Each attempt evaluates the member once on the
// machine as degraded by the faults so far, and that evaluation's
// Seconds is the attempt's duration. It returns the surviving attempt's
// degraded machine alongside its measurement and the attempt
// accounting, leaving what to do with them (render text, report the
// measurement) to the caller.
func runAttempts(m target.Target, name string, cpus int, opts ResilientOpts) (target.Target, ResilientMeasurement, error) {
	var res ResilientMeasurement
	if m == nil {
		return nil, res, fmt.Errorf("ncar: nil target for resilient run %q", name)
	}
	b, err := ByName(name)
	if err != nil {
		return nil, res, err
	}
	if cpus <= 0 {
		cpus = m.Spec().CPUs
	}
	maxAttempts := opts.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = DefaultMaxAttempts
	}

	t := 0.0
	backoff := BackoffBaseSeconds
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		res.Attempts = attempt
		d := opts.Injector.DegradationAt(t)
		dm, err := target.Degrade(m, d)
		if err != nil {
			return nil, res, fmt.Errorf("ncar: %s on %s at t=%s: %w",
				name, m.Name(), secs(t), err)
		}
		meas := evaluate(dm, b, cpus)
		if abortAt, aborted := firstAbort(opts.Injector, t, t+meas.Seconds); aborted {
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
		t += meas.Seconds
		if opts.DeadlineSeconds > 0 && t > opts.DeadlineSeconds {
			return nil, res, fmt.Errorf("ncar: %s on %s: would finish at t=%s, deadline %s: %w",
				name, m.Name(), secs(t), secs(opts.DeadlineSeconds), ErrDeadlineExceeded)
		}
		res.Measurement, res.FinishedAt, res.Degraded = meas, t, d
		return dm, res, nil
	}
	return nil, res, fmt.Errorf("ncar: %s on %s: %d attempts aborted by faults: %w",
		name, m.Name(), maxAttempts, ErrRetriesExhausted)
}

// firstAbort returns the time of the first attempt-killing fault in
// [from, to): a processor failure or a job kill. Bank and IOP events
// degrade the machine for subsequent attempts but do not abort a run
// in flight. Nil-safe.
func firstAbort(p *fault.Plan, from, to float64) (float64, bool) {
	if p == nil {
		return 0, false
	}
	for _, e := range p.Events {
		if e.At >= from && e.At < to && (e.Kind == fault.CPUFail || e.Kind == fault.JobKill) {
			return e.At, true
		}
	}
	return 0, false
}

// secs renders a simulated time for error messages.
func secs(t float64) string { return fmt.Sprintf("%.2fs", t) }
