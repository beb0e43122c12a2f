package check

import (
	"strconv"
	"strings"
	"testing"

	"sx4bench/internal/fault"
	"sx4bench/internal/ncar"
)

// Metamorphic properties of the resilience subsystem, expressed over
// the same rendered table the golden pins.

// TestResilienceFaultFreeIdentity: a nil plan and an empty plan
// must produce identical tables, with the faulted makespan column
// equal to the healthy one — injecting nothing is the same as not
// injecting.
func TestResilienceFaultFreeIdentity(t *testing.T) {
	nilTab, err := ncar.ResilienceTable(nil)
	if err != nil {
		t.Fatal(err)
	}
	emptyTab, err := ncar.ResilienceTable(&fault.Plan{})
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range nilTab.Rows {
		for j, cell := range row {
			if emptyTab.Rows[i][j] != cell {
				t.Errorf("row %d col %d: nil=%q empty=%q", i, j, cell, emptyTab.Rows[i][j])
			}
		}
		if row[4] != row[5] {
			t.Errorf("%s: fault-free faulted makespan %s != healthy %s", row[0], row[5], row[4])
		}
	}
}

// TestResilienceNeverLosesJobs: under the canonical schedule (and a
// harsher seeded one) every machine's Lost column is zero — a
// submitted job is recovered or reported failed, never dropped.
func TestResilienceNeverLosesJobs(t *testing.T) {
	for _, plan := range []*fault.Plan{
		fault.Canonical(),
		fault.NewPlan(7, 400, 24),
	} {
		tab, err := ncar.ResilienceTable(plan)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range tab.Rows {
			if lost := row[len(row)-1]; lost != "0" {
				t.Errorf("%s: %s jobs lost", row[0], lost)
			}
		}
	}
}

// TestResilienceDegradedNeverFasterThanHealthy: the faulted makespan
// is bounded below by the healthy one, and a degraded rate never
// exceeds the healthy rate.
func TestResilienceDegradedNeverFasterThanHealthy(t *testing.T) {
	tab, err := ncar.ResilienceTable(fault.Canonical())
	if err != nil {
		t.Fatal(err)
	}
	parse := func(s string) float64 {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("unparseable cell %q: %v", s, err)
		}
		return v
	}
	for _, row := range tab.Rows {
		if parse(row[5]) < parse(row[4]) {
			t.Errorf("%s: faulted makespan %s beat healthy %s", row[0], row[5], row[4])
		}
		if row[2] != "down" && parse(row[2]) > parse(row[1]) {
			t.Errorf("%s: degraded rate %s beat healthy %s", row[0], row[2], row[1])
		}
		if row[3] != "down" && !strings.HasSuffix(row[3], "x") {
			t.Errorf("%s: malformed slowdown cell %q", row[0], row[3])
		}
	}
}

// TestResilienceCanonicalShowsAllModes: the golden scenario must keep
// exhibiting the three behaviours it was designed around — a machine
// taken down, a machine degraded but alive, and at least one
// checkpoint-driven recovery.
func TestResilienceCanonicalShowsAllModes(t *testing.T) {
	tab, err := ncar.ResilienceTable(fault.Canonical())
	if err != nil {
		t.Fatal(err)
	}
	var downs, degraded, recovered int
	for _, row := range tab.Rows {
		if row[2] == "down" {
			downs++
		} else {
			degraded++
		}
		if row[6] != "0" {
			recovered++
		}
	}
	if downs == 0 || degraded == 0 || recovered == 0 {
		t.Errorf("canonical scenario lost its variety: %d down, %d degraded, %d with recoveries",
			downs, degraded, recovered)
	}
}
