package ncar

import (
	"fmt"
	"testing"

	_ "sx4bench/internal/machine" // registry
)

func TestSweepScenariosDistinct(t *testing.T) {
	// The cold guarantee: every (machine, trace fingerprint,
	// allocation) triple is distinct, so no scenario repeats the work
	// of another.
	scens := SweepScenarios(2000)
	if len(scens) != 2000 {
		t.Fatalf("got %d scenarios, want 2000", len(scens))
	}
	seen := make(map[string]int, len(scens))
	for i, s := range scens {
		key := fmt.Sprintf("%s/%x/%+v", s.Machine, s.Compiled.Fingerprint, s.Opts)
		if j, dup := seen[key]; dup {
			t.Fatalf("scenarios %d and %d collide: %s", j, i, key)
		}
		seen[key] = i
	}
}

func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	scens := SweepScenarios(600)
	serial, err := Sweep(scens, 1)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Scenarios != 600 || serial.Clocks <= 0 {
		t.Fatalf("implausible summary: %+v", serial)
	}
	for _, workers := range []int{2, 4, 8} {
		got, err := Sweep(scens, workers)
		if err != nil {
			t.Fatal(err)
		}
		if got != serial {
			t.Fatalf("workers=%d summary %+v != serial %+v", workers, got, serial)
		}
	}
}
