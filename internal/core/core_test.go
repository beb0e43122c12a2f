package core

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"sx4bench/internal/sx4"
	"sx4bench/internal/sx4/prog"
)

func TestKTriesReturnsBest(t *testing.T) {
	times := []float64{5, 3, 7, 2, 9}
	i := 0
	best := KTries(5, func() float64 { t := times[i]; i++; return t })
	if best != 2 {
		t.Errorf("KTries best = %v, want 2", best)
	}
}

func TestKTriesClampsK(t *testing.T) {
	calls := 0
	KTries(0, func() float64 { calls++; return 1 })
	if calls != 1 {
		t.Errorf("KTries(0) ran %d trials, want 1", calls)
	}
}

func TestNoiseDeterministic(t *testing.T) {
	a := NewNoise(0.05, 42)
	b := NewNoise(0.05, 42)
	for i := 0; i < 10; i++ {
		if a.Perturb(1.0) != b.Perturb(1.0) {
			t.Fatal("same-seed noise diverged")
		}
	}
}

func TestNoiseBounds(t *testing.T) {
	n := NewNoise(0.1, 7)
	for i := 0; i < 1000; i++ {
		v := n.Perturb(2.0)
		if v < 2.0 || v > 2.2 {
			t.Fatalf("Perturb out of bounds: %v", v)
		}
	}
}

func TestNilNoiseIdentity(t *testing.T) {
	var n *Noise
	if n.Perturb(3.5) != 3.5 {
		t.Error("nil noise changed the value")
	}
	z := &Noise{}
	if z.Perturb(3.5) != 3.5 {
		t.Error("zero-amp noise changed the value")
	}
}

func TestKTriesSmoothsNoise(t *testing.T) {
	// The paper: curves are relatively smooth at KTRIES >= 5. Best-of-20
	// under jitter must land closer to the true time than a single try's
	// worst case.
	noise := NewNoise(0.2, 1)
	true_ := 1.0
	best := KTries(20, func() float64 { return noise.Perturb(true_) })
	if best > 1.05 {
		t.Errorf("best-of-20 = %v, want <= 1.05 with 20%% jitter", best)
	}
}

func TestMeasurementRates(t *testing.T) {
	m := Measurement{Seconds: 2, Flops: 4e6, PayloadBytes: 8e6}
	if m.MFLOPS() != 2 {
		t.Errorf("MFLOPS = %v, want 2", m.MFLOPS())
	}
	if m.MBps() != 4 {
		t.Errorf("MBps = %v, want 4", m.MBps())
	}
	var zero Measurement
	if zero.MFLOPS() != 0 || zero.MBps() != 0 {
		t.Error("zero measurement should report zero rates")
	}
}

func TestSeriesHelpers(t *testing.T) {
	var s Series
	s.Append(1, 10)
	s.Append(2, 30)
	s.Append(3, 20)
	if s.MaxY() != 30 {
		t.Errorf("MaxY = %v, want 30", s.MaxY())
	}
	if y, ok := s.YAt(2); !ok || y != 30 {
		t.Errorf("YAt(2) = %v,%v want 30,true", y, ok)
	}
	if _, ok := s.YAt(99); ok {
		t.Error("YAt(99) found a point")
	}
	var empty Series
	if empty.MaxY() != 0 {
		t.Error("empty MaxY != 0")
	}
}

func TestRunAgainstMachine(t *testing.T) {
	m := sx4.New(sx4.BenchmarkedSingleCPU())
	p := prog.Simple("copy", 10,
		prog.Op{Class: prog.VLoad, VL: 1000, Stride: 1},
		prog.Op{Class: prog.VStore, VL: 1000, Stride: 1})
	meas := Run(m, p, sx4.RunOpts{Procs: 1}, 5, NewNoise(0.02, 3), 16*10*1000)
	if meas.Seconds <= 0 {
		t.Fatalf("non-positive time %v", meas.Seconds)
	}
	if meas.MBps() <= 0 {
		t.Error("zero bandwidth")
	}
	// Best-of-5 under 2% jitter should be within 2% of the noiseless time.
	clean := m.Run(p, sx4.RunOpts{Procs: 1}).Seconds
	if meas.Seconds < clean || meas.Seconds > clean*1.02 {
		t.Errorf("KTRIES measurement %v outside [%v, %v]", meas.Seconds, clean, clean*1.02)
	}
}

func TestWriteTable(t *testing.T) {
	tab := Table{
		ID:      "table7",
		Title:   "MOM speedup",
		Headers: []string{"CPUs", "Time", "Speedup"},
	}
	tab.AddRow("1", "1861.25", "1.00")
	tab.AddRow("32", "226.62", "9.06")
	var buf bytes.Buffer
	if err := WriteTable(&buf, tab); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"table7", "MOM speedup", "CPUs", "1861.25", "9.06"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteFigure(t *testing.T) {
	f := Figure{
		ID: "fig5", Title: "Memory bandwidth", XLabel: "N", YLabel: "MB/s",
		Series: []Series{{Label: "COPY", Points: []Point{{1, 10}, {100, 5000}}}},
	}
	var buf bytes.Buffer
	if err := WriteFigure(&buf, f); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"fig5", "COPY", "# x: N", "100\t5000"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	f := Figure{ID: "f", Series: []Series{{Label: `a,"b`, Points: []Point{{1, 2}}}}}
	var buf bytes.Buffer
	if err := WriteFigureCSV(&buf, f); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"a,""b",1,2`) {
		t.Errorf("CSV escaping wrong:\n%s", buf.String())
	}
	tab := Table{Headers: []string{"h1", "h2"}, Rows: [][]string{{"x", "y"}}}
	buf.Reset()
	if err := WriteTableCSV(&buf, tab); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "h1,h2\nx,y\n" {
		t.Errorf("table CSV = %q", got)
	}
}

func TestWritePlot(t *testing.T) {
	f := Figure{
		ID: "figX", Title: "test", XLabel: "N", YLabel: "MB/s",
		Series: []Series{
			{Label: "fast", Points: []Point{{1, 100}, {100, 10000}, {10000, 100000}}},
			{Label: "slow", Points: []Point{{1, 10}, {100, 1000}, {10000, 5000}}},
		},
	}
	var buf bytes.Buffer
	if err := WritePlot(&buf, f, 60, 15); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"figX", "log-log", "* fast", "o slow", "x: N"} {
		if !strings.Contains(out, want) {
			t.Errorf("plot missing %q", want)
		}
	}
	if strings.Count(out, "\n") < 15 {
		t.Error("plot too short")
	}
	// A figure with no positive points is rejected.
	bad := Figure{ID: "none", Series: []Series{{Label: "x", Points: []Point{{-1, -1}}}}}
	if err := WritePlot(&buf, bad, 60, 15); err == nil {
		t.Error("unplottable figure accepted")
	}
}

func TestWritePlotClampsDimensions(t *testing.T) {
	f := Figure{ID: "f", Series: []Series{{Label: "s", Points: []Point{{1, 1}, {10, 10}}}}}
	var buf bytes.Buffer
	if err := WritePlot(&buf, f, 1, 1); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("no output with clamped dimensions")
	}
}

// TestNoisePinned pins the exact jitter Noise draws: 50 draws from each
// of 20 seeds and 50 from each seed's Stream(7), folded into one FNV-1a
// digest of the float bits.
func TestNoisePinned(t *testing.T) {
	h := fnv.New64a()
	var buf [8]byte
	for seed := int64(1); seed <= 20; seed++ {
		n := NewNoise(0.05, seed)
		for _, src := range []*Noise{n, n.Stream(7)} {
			for i := 0; i < 50; i++ {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(src.Perturb(1)))
				h.Write(buf[:])
			}
		}
	}
	if got, want := h.Sum64(), uint64(0x1e1ce3cb4df9b9a2); got != want {
		t.Errorf("noise digest = %#x, want %#x", got, want)
	}
}
