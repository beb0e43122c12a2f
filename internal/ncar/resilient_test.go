package ncar

import (
	"context"
	"errors"
	"strings"
	"testing"

	"sx4bench/internal/fault"
	"sx4bench/internal/machine"
	"sx4bench/internal/target"
)

func TestRunResilientFaultFree(t *testing.T) {
	m := machine.SX4Single()
	var buf strings.Builder
	res, err := RunResilient(&buf, m, "RADABS", 1, ResilientOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts != 1 || !res.Degraded.IsZero() {
		t.Errorf("fault-free run: attempts=%d degraded=%v", res.Attempts, res.Degraded)
	}
	if res.FinishedAt <= 0 {
		t.Errorf("finished at %v, want positive simulated time", res.FinishedAt)
	}
	// The output is the plain RADABS output: resilient and plain
	// runners agree when nothing fails.
	var plain strings.Builder
	if err := RunBenchmark(&plain, m, "RADABS", 1); err != nil {
		t.Fatal(err)
	}
	if buf.String() != plain.String() {
		t.Error("fault-free resilient output differs from plain RunBenchmark")
	}
}

func TestRunResilientUnknownBenchmark(t *testing.T) {
	if _, err := RunResilient(nil, machine.SX4Single(), "NOSUCH", 1, ResilientOpts{}); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestRunResilientRetriesThenSucceeds(t *testing.T) {
	m := machine.SX4Benchmarked()
	// One kill early in the first attempt; the retry runs clean.
	plan := &fault.Plan{Events: []fault.Event{{At: 0.001, Kind: fault.JobKill}}}
	res, err := RunResilient(nil, m, "RADABS", 1, ResilientOpts{Injector: plan})
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts != 2 {
		t.Errorf("attempts = %d, want 2", res.Attempts)
	}
	// The aborted attempt and its backoff are on the clock.
	if res.FinishedAt <= BackoffBaseSeconds {
		t.Errorf("finished at %v, want > backoff %v", res.FinishedAt, BackoffBaseSeconds)
	}
}

// TestRunResilientAbortWindowHalfOpen pins the window an attempt can
// be aborted in, [start, end): a kill at the attempt's start aborts
// it, and a kill exactly at its end finds it finished.
func TestRunResilientAbortWindowHalfOpen(t *testing.T) {
	m := machine.SX4Benchmarked()
	healthy, err := Measure(context.Background(), m, "RADABS", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		at       float64
		attempts int
	}{{0, 2}, {healthy.Seconds, 1}} {
		plan := &fault.Plan{Events: []fault.Event{{At: tc.at, Kind: fault.JobKill}}}
		res, err := RunResilient(nil, m, "RADABS", 1, ResilientOpts{Injector: plan})
		if err != nil || res.Attempts != tc.attempts {
			t.Errorf("kill at t=%v: %d attempts, %v; want %d", tc.at, res.Attempts, err, tc.attempts)
		}
	}
}

func TestRunResilientRetriesExhausted(t *testing.T) {
	m := machine.SX4Benchmarked()
	// Kills densely packed far beyond any attempt horizon.
	var evs []fault.Event
	for i := 0; i < 4000; i++ {
		evs = append(evs, fault.Event{At: float64(i) * 0.5, Kind: fault.JobKill})
	}
	plan := &fault.Plan{Events: evs}
	_, err := RunResilient(nil, m, "RADABS", 1, ResilientOpts{Injector: plan})
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Errorf("err = %v, want ErrRetriesExhausted", err)
	}
	if err != nil && !strings.Contains(err.Error(), "RADABS") {
		t.Errorf("error %q does not name the benchmark", err)
	}
}

func TestRunResilientDeadlineExceeded(t *testing.T) {
	m := machine.SX4Benchmarked()
	// No faults, but an absurdly tight simulated deadline.
	_, err := RunResilient(nil, m, "RADABS", 1, ResilientOpts{DeadlineSeconds: 1e-9})
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Errorf("err = %v, want ErrDeadlineExceeded", err)
	}
}

func TestRunResilientDeadlineDuringBackoff(t *testing.T) {
	m := machine.SX4Benchmarked()
	plan := &fault.Plan{Events: []fault.Event{{At: 0.001, Kind: fault.JobKill}}}
	// The kill aborts attempt 1; the backoff alone blows the deadline.
	_, err := RunResilient(nil, m, "RADABS", 1,
		ResilientOpts{Injector: plan, DeadlineSeconds: 0.5})
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Errorf("err = %v, want ErrDeadlineExceeded", err)
	}
}

func TestRunResilientMachineDown(t *testing.T) {
	m := machine.SX4Single()
	// The uniprocessor loses its only CPU before the run starts.
	plan := &fault.Plan{Events: []fault.Event{{At: 0, Kind: fault.CPUFail}}}
	// DegradationAt(0) already includes the failure, so attempt 1 runs
	// on a dead machine.
	_, err := RunResilient(nil, m, "RADABS", 1, ResilientOpts{Injector: plan})
	if !errors.Is(err, target.ErrMachineDown) {
		t.Errorf("err = %v, want target.ErrMachineDown", err)
	}
}

func TestRunResilientDegradedAttempt(t *testing.T) {
	m := machine.SX4Benchmarked()
	healthy, err := Measure(context.Background(), m, "RADABS", 1)
	if err != nil {
		t.Fatal(err)
	}
	// Bank degradations before the attempt window: no abort, but the
	// attempt runs on the degraded machine and takes longer. (Two
	// halvings: one still leaves the SX-4 port wide enough for RADABS.)
	plan := &fault.Plan{Events: []fault.Event{
		{At: 0, Kind: fault.BankDegrade},
		{At: 0, Kind: fault.BankDegrade},
	}}
	res, err := RunResilient(nil, m, "RADABS", 1, ResilientOpts{Injector: plan})
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts != 1 {
		t.Errorf("attempts = %d, want 1 (bank events do not abort)", res.Attempts)
	}
	if res.Degraded.IsZero() {
		t.Error("attempt did not record the degradation in force")
	}
	if res.FinishedAt <= healthy.Seconds {
		t.Errorf("degraded attempt %vs not slower than healthy %vs", res.FinishedAt, healthy.Seconds)
	}
}

func TestMeasureSecondsCoversSuite(t *testing.T) {
	m := machine.SX4Benchmarked()
	for _, b := range Suite() {
		meas, err := Measure(context.Background(), m, b.Name, 1)
		if err != nil {
			t.Fatal(err)
		}
		if meas.Seconds <= 0 {
			t.Errorf("%s: attempt duration %v, want positive", b.Name, meas.Seconds)
		}
	}
}
