package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sx4bench/internal/ncar"
)

func TestRunMainUnknownMachine(t *testing.T) {
	var buf bytes.Buffer
	err := runMain(&buf, options{machine: "nosuch", benchmark: "RADABS", workers: 1})
	if err == nil {
		t.Fatal("runMain accepted an unknown machine")
	}
	if !strings.Contains(err.Error(), "nosuch") || !strings.Contains(err.Error(), "known:") {
		t.Errorf("error %q does not name the machine and the known set", err)
	}
	if buf.Len() != 0 {
		t.Errorf("unknown machine wrote %d bytes of output", buf.Len())
	}
}

func TestRunMainUnknownBenchmark(t *testing.T) {
	var buf bytes.Buffer
	if err := runMain(&buf, options{machine: "sx4-32", benchmark: "NOSUCH", workers: 1}); err == nil {
		t.Error("runMain accepted an unknown benchmark")
	}
}

func TestRunMainShortSweep(t *testing.T) {
	var buf bytes.Buffer
	if err := runMain(&buf, options{machine: "all", workers: 1, short: true}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) < 7 {
		t.Errorf("-machine all -short printed %d lines, want one per registered machine (>= 7)", len(lines))
	}
	for _, want := range []string{"SUN Sparc 20", "CRI Y-MP", "SX-4/32"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("short sweep output missing %q", want)
		}
	}
}

func TestRunMainSingleMachineBenchmark(t *testing.T) {
	var buf bytes.Buffer
	if err := runMain(&buf, options{machine: "ymp", benchmark: "RADABS", workers: 1}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "CRI Y-MP") {
		t.Errorf("RADABS on ymp does not name the machine:\n%s", buf.String())
	}
}

func TestRunMainListsSuiteByDefault(t *testing.T) {
	var buf bytes.Buffer
	if err := runMain(&buf, options{machine: "sx4-32", workers: 1}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "NCAR Benchmark Suite") {
		t.Errorf("no -run did not list the suite:\n%s", buf.String())
	}
}

func TestRunMainSeededFaults(t *testing.T) {
	var buf bytes.Buffer
	err := runMain(&buf, options{machine: "sx4-32", benchmark: "RADABS", workers: 1, faults: "1996"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "resilient: RADABS") {
		t.Errorf("-faults run missing the resilience summary line:\n%s", buf.String())
	}
}

func TestRunMainFaultScheduleFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sched.txt")
	if err := os.WriteFile(path, []byte("# kill early, retry succeeds\n0.001 jobkill 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := runMain(&buf, options{machine: "sx4-32", benchmark: "RADABS", workers: 1, faults: path}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "2 attempt(s)") {
		t.Errorf("schedule file did not force a retry:\n%s", buf.String())
	}
}

func TestRunMainBadFaultsArg(t *testing.T) {
	var buf bytes.Buffer
	err := runMain(&buf, options{machine: "sx4-32", benchmark: "RADABS", workers: 1, faults: "/no/such/schedule"})
	if err == nil {
		t.Fatal("runMain accepted an unreadable -faults value")
	}
	if !strings.Contains(err.Error(), "-faults") {
		t.Errorf("error %q does not explain the -faults value", err)
	}
}

func TestRunMainDeadlineExceeded(t *testing.T) {
	var buf bytes.Buffer
	err := runMain(&buf, options{machine: "sx4-32", benchmark: "RADABS", workers: 1, deadline: 1e-9})
	if !errors.Is(err, ncar.ErrDeadlineExceeded) {
		t.Errorf("err = %v, want ErrDeadlineExceeded", err)
	}
}

func TestRunMainFaultsDeterministicAcrossWorkers(t *testing.T) {
	render := func(workers int) string {
		var buf bytes.Buffer
		if err := runMain(&buf, options{machine: "sx4-32", benchmark: "all", workers: workers, faults: "1996"}); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	serial := render(1)
	if parallel := render(4); parallel != serial {
		t.Error("-run all -faults output differs between -workers 1 and -workers 4")
	}
}

func TestRunMainCacheStats(t *testing.T) {
	var buf bytes.Buffer
	if err := runMain(&buf, options{machine: "sx4-1", benchmark: "RADABS", workers: 1, cachestats: true}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "cachestats SX-4/1:") {
		t.Fatalf("-cachestats output missing the counter line:\n%s", out)
	}
	for _, want := range []string{" hits, ", " misses (", " entries\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("cachestats line missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "shards") {
		t.Errorf("cachestats line still reports memo shard occupancy:\n%s", out)
	}

	// Off by default: the same run without the flag prints no counters.
	buf.Reset()
	if err := runMain(&buf, options{machine: "sx4-1", benchmark: "RADABS", workers: 1}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "cachestats") {
		t.Errorf("counters printed without -cachestats:\n%s", buf.String())
	}
}

func TestRunMainFleetCapacity(t *testing.T) {
	run := func(workers int) string {
		var buf bytes.Buffer
		err := runMain(&buf, options{fleet: "sx4-32,c90", scenarios: 6, fleetseed: 7, workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	serial := run(1)
	if !strings.Contains(serial, "Fleet capacity planning") || !strings.Contains(serial, "diurnal") {
		t.Fatalf("capacity output missing the table:\n%s", serial)
	}
	// The capacity table is byte-identical for every -workers value.
	for _, workers := range []int{4, 8} {
		if got := run(workers); got != serial {
			t.Errorf("-workers %d output differs:\n%s\nvs\n%s", workers, got, serial)
		}
	}
}

func TestRunMainFleetFlagValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := runMain(&buf, options{scenarios: 10}); err == nil {
		t.Error("-scenarios without -fleet accepted")
	}
	if err := runMain(&buf, options{fleet: "nosuchmachine"}); err == nil {
		t.Error("unknown fleet member accepted")
	}
	if err := runMain(&buf, options{fleet: "sx4-32", scenarios: -1}); err == nil {
		t.Error("negative -scenarios accepted")
	}
}
