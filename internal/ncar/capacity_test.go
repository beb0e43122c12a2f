package ncar

import (
	"strings"
	"testing"

	"sx4bench/internal/core"
)

func renderCapacity(t *testing.T, workers int) string {
	t.Helper()
	tab, err := CapacityTableFor(CanonicalFleetSpec, CanonicalCapacityScenarios, 1996, workers)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := core.WriteTable(&buf, tab); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestCapacityTableWorkerInvariant(t *testing.T) {
	// The golden acceptance bar: the rendered capacity table is
	// byte-identical at every worker count.
	serial := renderCapacity(t, 1)
	for _, workers := range []int{4, 8, 0} {
		if got := renderCapacity(t, workers); got != serial {
			t.Fatalf("capacity table differs at %d workers:\n%s\nvs serial:\n%s", workers, got, serial)
		}
	}
}

func TestCapacityTableShape(t *testing.T) {
	tab, err := CapacityTable()
	if err != nil {
		t.Fatal(err)
	}
	if tab.ID != "capacity" {
		t.Errorf("table ID = %q", tab.ID)
	}
	// Three canonical mixes plus the fleet-wide total row.
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tab.Rows))
	}
	if got := tab.Rows[3][0]; got != "all" {
		t.Errorf("last row is %q, want the total row", got)
	}
	if !strings.Contains(tab.Title, "checksum") {
		t.Error("title lost the report checksum — the golden would no longer pin per-scenario results")
	}
	for i, row := range tab.Rows {
		if len(row) != len(tab.Headers) {
			t.Errorf("row %d has %d cells for %d headers", i, len(row), len(tab.Headers))
		}
		if lost := row[len(row)-1]; lost != "0" {
			t.Errorf("row %d lost %s jobs; the no-lost-jobs invariant must hold in the artifact", i, lost)
		}
	}
}

func TestCapacityReportSharedMemoAccumulates(t *testing.T) {
	before := capacityEngine.Stats()
	if _, err := CapacityReport(CanonicalFleetSpec, 8, 1996, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := CapacityReport(CanonicalFleetSpec, 8, 1996, 0); err != nil {
		t.Fatal(err)
	}
	after := capacityEngine.Stats()
	if after.Hits < before.Hits+8 {
		t.Errorf("repeat capacity query did not ride the shared memo: %+v -> %+v", before, after)
	}
}

func TestCapacityReportRejectsBadSpec(t *testing.T) {
	if _, err := CapacityReport("nosuchmachine", 4, 1996, 1); err == nil {
		t.Error("unknown fleet spec accepted")
	}
}
