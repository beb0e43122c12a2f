package ncar

import (
	"reflect"
	"strconv"
	"strings"
	"testing"

	"sx4bench/internal/target"
)

// colIndex returns the table column for a registry display name.
func colIndex(t *testing.T, headers []string, name string) int {
	t.Helper()
	for i, h := range headers {
		if h == name {
			return i
		}
	}
	t.Fatalf("no column %q in %v", name, headers)
	return -1
}

// rowByLabel returns the row whose first cell is label.
func rowByLabel(t *testing.T, rows [][]string, label string) []string {
	t.Helper()
	for _, r := range rows {
		if r[0] == label {
			return r
		}
	}
	t.Fatalf("no row %q", label)
	return nil
}

func cellFloat(t *testing.T, row []string, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(row[col], 64)
	if err != nil {
		t.Fatalf("cell %q in row %s is not numeric: %v", row[col], row[0], err)
	}
	return v
}

func TestCrossMachineTableShape(t *testing.T) {
	tab, err := CrossMachineTable()
	if err != nil {
		t.Fatal(err)
	}
	wantCols := 1 + len(target.All())
	if len(tab.Headers) != wantCols {
		t.Errorf("headers = %d columns (%v), want %d", len(tab.Headers), tab.Headers, wantCols)
	}
	// One row per suite member, plus the HINT row beside RADABS.
	if want := len(Suite()) + 1; len(tab.Rows) != want {
		t.Errorf("table has %d rows, want %d (suite + HINT)", len(tab.Rows), want)
	}
	for _, r := range tab.Rows {
		if len(r) != wantCols {
			t.Errorf("row %s has %d cells, want %d", r[0], len(r), wantCols)
		}
		for _, c := range r[1:] {
			if strings.TrimSpace(c) == "" {
				t.Errorf("row %s has an empty cell", r[0])
			}
		}
	}
	// Every suite benchmark appears as a row prefix, in suite order.
	ri := 0
	for _, b := range Suite() {
		found := false
		for ; ri < len(tab.Rows); ri++ {
			if strings.HasPrefix(tab.Rows[ri][0], b.Name) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("suite benchmark %s has no row (or is out of order)", b.Name)
			ri = 0
		}
	}
}

// TestCrossMachineInversion pins the paper's Table 1 argument in the
// cross-machine sweep: the cache-friendly HINT metric ranks the
// RS6000/590 workstation above the Cray vector machines, while the
// vectorizable RADABS kernel inverts that ranking decisively.
func TestCrossMachineInversion(t *testing.T) {
	tab, err := CrossMachineTable()
	if err != nil {
		t.Fatal(err)
	}
	hintRow := rowByLabel(t, tab.Rows, "HINT (MQUIPS)")
	radRow := rowByLabel(t, tab.Rows, "RADABS (MFLOPS)")
	col := func(name string) int { return colIndex(t, tab.Headers, name) }

	rs, ymp, j90 := col("IBM RS6000/590"), col("CRI Y-MP"), col("CRI J90")
	if h := cellFloat(t, hintRow, rs); h <= cellFloat(t, hintRow, ymp) || h <= cellFloat(t, hintRow, j90) {
		t.Errorf("HINT does not rank RS6000 (%v) above Y-MP (%v) and J90 (%v)",
			hintRow[rs], hintRow[ymp], hintRow[j90])
	}
	if r := cellFloat(t, radRow, rs); cellFloat(t, radRow, ymp) <= 5*r {
		t.Errorf("RADABS does not invert: Y-MP %v not >5x RS6000 %v", radRow[ymp], radRow[rs])
	}

	// RADABS ranking follows peak vector capability: SX-4 > C90 > Y-MP >
	// J90 > both workstations (the Table 1 ordering).
	order := []string{"SX-4/1", "CRI C90", "CRI Y-MP", "CRI J90", "IBM RS6000/590", "SUN Sparc 20"}
	for i := 0; i+1 < len(order); i++ {
		a, b := cellFloat(t, radRow, col(order[i])), cellFloat(t, radRow, col(order[i+1]))
		if a <= b {
			t.Errorf("RADABS ordering broken: %s %.1f <= %s %.1f", order[i], a, order[i+1], b)
		}
	}
}

// TestCrossMachineIOGating: the comparison systems were benchmarked
// compute-only; their I/O-category cells must read "n/a", while the
// SX-4 columns carry real rates.
func TestCrossMachineIOGating(t *testing.T) {
	tab, err := CrossMachineTable()
	if err != nil {
		t.Fatal(err)
	}
	col := func(name string) int { return colIndex(t, tab.Headers, name) }
	for _, label := range []string{"IO (MB/s)", "HIPPI (MB/s)", "NETWORK (MB/s)"} {
		row := rowByLabel(t, tab.Rows, label)
		for _, name := range []string{"SUN Sparc 20", "IBM RS6000/590", "CRI J90", "CRI Y-MP", "CRI C90"} {
			if got := row[col(name)]; got != "n/a" {
				t.Errorf("%s on compute-only %s = %q, want n/a", label, name, got)
			}
		}
		for _, name := range []string{"SX-4/1", "SX-4/32"} {
			if v := cellFloat(t, row, col(name)); v <= 0 {
				t.Errorf("%s on %s = %v, want positive rate", label, name, v)
			}
		}
	}
}

// TestCrossMachineDeterministic: the sweep must be byte-exact run to
// run — the property the golden depends on.
func TestCrossMachineDeterministic(t *testing.T) {
	a, err := CrossMachineTable()
	if err != nil {
		t.Fatal(err)
	}
	b, err := CrossMachineTable()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("CrossMachineTable differs across calls")
	}
}

// BenchmarkCrossMachineTable times a warm render: every machine's
// traces compiled and the process-wide results cached.
func BenchmarkCrossMachineTable(b *testing.B) {
	if _, err := CrossMachineTable(); err != nil {
		b.Fatal(err)
	}
	for b.Loop() {
		if _, err := CrossMachineTable(); err != nil {
			b.Fatal(err)
		}
	}
}
