package ncar

import (
	"strconv"
	"strings"
	"testing"

	"sx4bench/internal/prodload"
	"sx4bench/internal/sx4"
)

func bench() *sx4.Machine { return sx4.New(sx4.Benchmarked()) }

func TestSuiteComposition(t *testing.T) {
	s := Suite()
	if len(s) != 15 {
		t.Fatalf("suite has %d members; the paper lists 13 kernels + 3 applications with one vendor-choice ocean model (15 named codes)", len(s))
	}
	counts := map[Category]int{}
	for _, b := range s {
		counts[b.Category]++
	}
	want := map[Category]int{
		Correctness: 2, MemoryBandwidth: 3, CodingStyle: 2, RawPerformance: 1,
		InputOutput: 3, ProductionMix: 1, Applications: 3,
	}
	for c, n := range want {
		if counts[c] != n {
			t.Errorf("category %v has %d members, want %d", c, counts[c], n)
		}
	}
	// KTRIES per the paper: 5 for VFFT, 20 for the other swept kernels.
	vfft, _ := ByName("VFFT")
	if vfft.KTries != 5 {
		t.Errorf("VFFT KTRIES = %d, want 5", vfft.KTries)
	}
	for _, name := range []string{"COPY", "IA", "XPOSE", "RFFT", "RADABS"} {
		b, err := ByName(name)
		if err != nil || b.KTries != 20 {
			t.Errorf("%s KTRIES = %d, want 20", name, b.KTries)
		}
	}
	if _, err := ByName("NOPE"); err == nil {
		t.Error("unknown benchmark found")
	}
	// Suite hands out copies: editing one leaves the suite intact.
	s[0].Name = "EDITED"
	if Suite()[0].Name != "PARANOIA" {
		t.Error("editing Suite's result changed the suite")
	}
}

// TestByNameAllocatesNothing pins that a lookup, which every run
// request's validation and every measured member pays, copies no
// suite.
func TestByNameAllocatesNothing(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() {
		if _, err := ByName("POP"); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("ByName allocates %v times per call, want 0", n)
	}
}

func parseCell(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		t.Fatalf("cell %q: %v", s, err)
	}
	return v
}

func TestTable1Shape(t *testing.T) {
	tab := Table1()
	if len(tab.Rows) != 2 || len(tab.Rows[0]) != 5 {
		t.Fatalf("table1 shape wrong: %+v", tab.Rows)
	}
	// HINT ranks the workstations above the vector machines; RADABS
	// inverts that (the paper's criticism).
	hintSparc := parseCell(t, tab.Rows[0][1])
	hintYMP := parseCell(t, tab.Rows[0][4])
	radSparc := parseCell(t, tab.Rows[1][1])
	radYMP := parseCell(t, tab.Rows[1][4])
	if !(hintSparc > hintYMP) {
		t.Errorf("HINT: Sparc (%v) should beat YMP (%v)", hintSparc, hintYMP)
	}
	if !(radYMP > 5*radSparc) {
		t.Errorf("RADABS: YMP (%v) should crush Sparc (%v)", radYMP, radSparc)
	}
}

func TestTable2Contents(t *testing.T) {
	tab := Table2()
	joined := ""
	for _, r := range tab.Rows {
		joined += strings.Join(r, " ") + "\n"
	}
	for _, want := range []string{"9.2 ns", "2 GFLOPS", "16 GB/sec/proc", "282 GB", "8 GB", "4 GB", "air cooled", "122.8 KVA"} {
		if !strings.Contains(joined, want) {
			t.Errorf("table2 missing %q:\n%s", want, joined)
		}
	}
}

func TestTable3Rates(t *testing.T) {
	tab := Table3(bench())
	if len(tab.Rows) != 1 || len(tab.Rows[0]) != 6 {
		t.Fatalf("table3 shape: %+v", tab.Rows)
	}
	for i := 1; i < 6; i++ {
		v := parseCell(t, tab.Rows[0][i])
		if v < 10 || v > 400 {
			t.Errorf("intrinsic rate %v out of plausible range", v)
		}
	}
}

func TestTable4MatchesPaper(t *testing.T) {
	tab := Table4()
	if len(tab.Rows) != 5 {
		t.Fatalf("table4 rows = %d", len(tab.Rows))
	}
	if tab.Rows[0][0] != "T42L18" || tab.Rows[0][1] != "64 x 128" ||
		tab.Rows[0][2] != "2.8 degrees" || tab.Rows[0][3] != "20.0 min." {
		t.Errorf("table4 first row = %v", tab.Rows[0])
	}
	if tab.Rows[4][0] != "T170L18" || tab.Rows[4][1] != "256 x 512" {
		t.Errorf("table4 last row = %v", tab.Rows[4])
	}
}

func TestTable5Bands(t *testing.T) {
	tab := Table5(bench())
	t42 := parseCell(t, tab.Rows[0][1])
	t63 := parseCell(t, tab.Rows[1][1])
	if t42 < 0.8*1327.53 || t42 > 1.2*1327.53 {
		t.Errorf("T42 year = %v, paper 1327.53", t42)
	}
	if t63 < 0.8*3452.48 || t63 > 1.2*3452.48 {
		t.Errorf("T63 year = %v, paper 3452.48", t63)
	}
}

func TestTable6Degradation(t *testing.T) {
	tab := Table6(bench())
	degr := parseCell(t, tab.Rows[2][1])
	if degr < 1 || degr > 3 {
		t.Errorf("degradation %v%%, paper 1.89%%", degr)
	}
}

func TestTable7MatchesBands(t *testing.T) {
	tab := Table7(bench())
	if len(tab.Rows) != 5 {
		t.Fatalf("table7 rows = %d", len(tab.Rows))
	}
	s32 := parseCell(t, tab.Rows[4][2])
	if s32 < 7.25 || s32 > 10.87 {
		t.Errorf("MOM speedup@32 = %v, paper 9.06", s32)
	}
}

func TestFig5Shape(t *testing.T) {
	f := Fig5(bench(), 3)
	if len(f.Series) != 3 {
		t.Fatalf("fig5 series = %d", len(f.Series))
	}
	copyMax := f.Series[0].MaxY()
	iaMax := f.Series[1].MaxY()
	xposeMax := f.Series[2].MaxY()
	if !(copyMax > 2*iaMax && copyMax > 2*xposeMax) {
		t.Errorf("COPY (%v) should far exceed IA (%v) and XPOSE (%v)", copyMax, iaMax, xposeMax)
	}
	// Bandwidth rises with vector length (roughly monotone curves).
	for _, s := range f.Series {
		if s.Points[0].Y >= s.Points[len(s.Points)-1].Y {
			t.Errorf("series %s does not rise with N", s.Label)
		}
	}
}

func TestFig6Fig7OrderOfMagnitude(t *testing.T) {
	m := bench()
	f6 := Fig6(m)
	f7 := Fig7(m)
	if len(f6.Series) != 3 || len(f7.Series) != 4 {
		t.Fatalf("series counts: fig6=%d fig7=%d", len(f6.Series), len(f7.Series))
	}
	// Peak of VFFT (M=500) about an order of magnitude over RFFT.
	r := f6.Series[0].MaxY()
	v := f7.Series[0].MaxY()
	if ratio := v / r; ratio < 5 || ratio > 30 {
		t.Errorf("VFFT/RFFT peak ratio = %.1f (%.0f vs %.0f MFLOPS), want ~10x", ratio, v, r)
	}
}

func TestFig8Anchor(t *testing.T) {
	f := Fig8(bench())
	if len(f.Series) != 3 {
		t.Fatalf("fig8 series = %d", len(f.Series))
	}
	t170 := f.Series[2]
	if y, ok := t170.YAt(32); !ok || y < 20 || y > 28 {
		t.Errorf("T170@32 = %v GFLOPS, paper 24", y)
	}
}

func TestRADABSAndPOPAnchors(t *testing.T) {
	m := bench()
	if v := RADABSMFlops(m); v < 780 || v > 950 {
		t.Errorf("RADABS = %.1f MFLOPS, paper 865.9", v)
	}
	if v := POPMFlops(m); v < 430 || v > 650 {
		t.Errorf("POP = %.0f MFLOPS, paper 537", v)
	}
}

func TestCorrectnessCategory(t *testing.T) {
	r := RunCorrectness()
	if !r.Pass {
		t.Errorf("correctness category failed: paranoia pass=%v", r.Paranoia.Pass())
	}
	if len(r.Elefunt) != 5 {
		t.Errorf("elefunt results = %d", len(r.Elefunt))
	}
}

func TestIOCategory(t *testing.T) {
	r := RunIOCategory()
	if len(r.History) != 5 || len(r.HIPPI) == 0 || len(r.Network) == 0 {
		t.Errorf("I/O category incomplete: %d/%d/%d", len(r.History), len(r.HIPPI), len(r.Network))
	}
}

func TestProdloadAnchor(t *testing.T) {
	r := prodload.Run(bench())
	paper := 93*60 + 28.0
	if r.TotalSeconds < 0.8*paper || r.TotalSeconds > 1.2*paper {
		t.Errorf("PRODLOAD = %.1f min, paper 93.47 min", r.TotalMinutes())
	}
}

func TestCategoryString(t *testing.T) {
	if !strings.Contains(MemoryBandwidth.String(), "memory") {
		t.Error("category name wrong")
	}
	if !strings.Contains(Category(99).String(), "99") {
		t.Error("unknown category should include number")
	}
}
