package machine

import (
	"strings"
	"testing"

	"sx4bench/internal/fftpack"
	"sx4bench/internal/radabs"
	"sx4bench/internal/sx4"
	"sx4bench/internal/sx4/prog"
)

func radabsMFLOPS(t Target) float64 {
	p := radabs.Trace(radabs.BenchmarkColumns, radabs.DefaultLevels)
	r := t.Run(p, sx4.RunOpts{Procs: 1})
	return r.MFLOPS()
}

func TestRADABSTable1Bands(t *testing.T) {
	// Paper Table 1 RADABS MFLOPS: Sparc20 12.8, RS6K/590 16.5,
	// J90 60.8, Y-MP 178.1. The model must land within ±30%.
	cases := []struct {
		target Target
		paper  float64
	}{
		{SunSparc20(), 12.8},
		{IBMRS6000590(), 16.5},
		{CrayJ90(), 60.8},
		{CrayYMP(), 178.1},
	}
	for _, c := range cases {
		got := radabsMFLOPS(c.target)
		lo, hi := 0.7*c.paper, 1.3*c.paper
		if got < lo || got > hi {
			t.Errorf("%s RADABS = %.1f MFLOPS, want within [%.1f, %.1f] (paper %.1f)",
				c.target.Name(), got, lo, hi, c.paper)
		}
	}
}

func TestRADABSOrderingAcrossMachines(t *testing.T) {
	// Vector machines dominate the radiation kernel; C90 beats Y-MP.
	ymp := radabsMFLOPS(CrayYMP())
	c90 := radabsMFLOPS(CrayC90())
	j90 := radabsMFLOPS(CrayJ90())
	sparc := radabsMFLOPS(SunSparc20())
	rs6k := radabsMFLOPS(IBMRS6000590())
	if !(c90 > ymp && ymp > j90 && j90 > rs6k && rs6k > sparc) {
		t.Errorf("RADABS ordering violated: C90=%.1f YMP=%.1f J90=%.1f RS6K=%.1f Sparc=%.1f",
			c90, ymp, j90, rs6k, sparc)
	}
}

func TestSX4OutrunsYMPOnRADABS(t *testing.T) {
	// The paper reports 865.9 Y-MP-equivalent MFLOPS on the SX-4/1:
	// about 4.9x one Y-MP processor.
	sx := sx4.New(sx4.BenchmarkedSingleCPU())
	p := radabs.Trace(radabs.BenchmarkColumns, radabs.DefaultLevels)
	sxMF := sx.Run(p, sx4.RunOpts{Procs: 1}).MFLOPS()
	ympMF := radabsMFLOPS(CrayYMP())
	ratio := sxMF / ympMF
	if ratio < 3.5 || ratio > 6.5 {
		t.Errorf("SX-4/YMP RADABS ratio = %.2f, want within [3.5, 6.5] (paper: 4.86)", ratio)
	}
}

func TestWorkstationCacheEffect(t *testing.T) {
	// A small copy loop should run much faster than a huge one on a
	// cache machine.
	w := IBMRS6000590()
	small := prog.Simple("small", 1000,
		prog.Op{Class: prog.VLoad, VL: 1000, Stride: 1},
		prog.Op{Class: prog.VStore, VL: 1000, Stride: 1})
	big := prog.Simple("big", 1,
		prog.Op{Class: prog.VLoad, VL: 1_000_000, Stride: 1},
		prog.Op{Class: prog.VStore, VL: 1_000_000, Stride: 1})
	sRate := float64(small.Words()) / w.Run(small, sx4.RunOpts{}).Seconds
	bRate := float64(big.Words()) / w.Run(big, sx4.RunOpts{}).Seconds
	if sRate < 3*bRate {
		t.Errorf("in-cache rate %.3g should be >=3x out-of-cache %.3g", sRate, bRate)
	}
}

func TestWorkstationGatherPenaltyOnlyBeyondCache(t *testing.T) {
	w := SunSparc20()
	load := prog.Simple("load", 1,
		prog.Op{Class: prog.VLoad, VL: 1 << 20, Stride: 1})
	gather := prog.Simple("gather", 1,
		prog.Op{Class: prog.VGather, VL: 1 << 20})
	tl := w.Run(load, sx4.RunOpts{}).Seconds
	tg := w.Run(gather, sx4.RunOpts{}).Seconds
	if tg <= tl {
		t.Errorf("out-of-cache gather (%.3g) should cost more than a streaming load (%.3g)", tg, tl)
	}
}

func TestCodingStyleGapIsAVectorMachinePhenomenon(t *testing.T) {
	// Section 4.3's guidance to developers: loop order is decisive on
	// the SX-4 (an order of magnitude between RFFT and VFFT) but
	// nearly immaterial on a cache workstation running the same
	// transforms.
	n, m := 256, 500
	rfft := fftpack.RFFTTrace(n, m)
	vfft := fftpack.VFFTTrace(n, m)

	ws := IBMRS6000590()
	wsRatio := ws.Run(rfft, sx4.RunOpts{}).Seconds / ws.Run(vfft, sx4.RunOpts{}).Seconds

	sx := sx4.New(sx4.BenchmarkedSingleCPU())
	sxRatio := sx.Run(rfft, sx4.RunOpts{Procs: 1}).Seconds / sx.Run(vfft, sx4.RunOpts{Procs: 1}).Seconds

	if wsRatio > 1.5 || wsRatio < 0.5 {
		t.Errorf("RS6000 style ratio = %.2f, want near 1 (loop order immaterial)", wsRatio)
	}
	if sxRatio < 5 {
		t.Errorf("SX-4 style ratio = %.1f, want >= 5 (loop order decisive)", sxRatio)
	}
	if sxRatio < 4*wsRatio {
		t.Errorf("the style gap (SX-4 %.1fx vs RS6000 %.2fx) should be a vector-machine phenomenon",
			sxRatio, wsRatio)
	}
}

func TestVectorBaselinesPeaks(t *testing.T) {
	if got := CrayYMP().Config().PeakFlopsPerCPU() / 1e6; got < 300 || got > 360 {
		t.Errorf("Y-MP peak = %.0f MFLOPS, want ~333", got)
	}
	if got := CrayC90().Config().PeakFlopsPerCPU() / 1e6; got < 900 || got > 1000 {
		t.Errorf("C90 peak = %.0f MFLOPS, want ~960", got)
	}
	if got := CrayJ90().Config().PeakFlopsPerCPU() / 1e6; got < 180 || got > 220 {
		t.Errorf("J90 peak = %.0f MFLOPS, want ~200", got)
	}
}

func TestWorkstationString(t *testing.T) {
	s := SunSparc20().String()
	if !strings.Contains(s, "Sparc") || !strings.Contains(s, "MHz") {
		t.Errorf("unexpected description %q", s)
	}
}

func TestScalarProfiles(t *testing.T) {
	for _, tgt := range []Target{SunSparc20(), IBMRS6000590(), CrayJ90(), CrayYMP()} {
		p := tgt.Scalar()
		if p.ClockNS <= 0 || p.IssuePerClock <= 0 {
			t.Errorf("%s: bad scalar profile %+v", tgt.Name(), p)
		}
		if p.HasCache && p.CacheWordsPerClock <= 0 {
			t.Errorf("%s: cache machine without cache bandwidth", tgt.Name())
		}
		if !p.HasCache && p.MemClocksPerWord <= 0 {
			t.Errorf("%s: cacheless machine without memory latency", tgt.Name())
		}
	}
}

func TestWorkstationScalarOps(t *testing.T) {
	w := SunSparc20()
	p := prog.Simple("s", 100, prog.Op{Class: prog.Scalar, Count: 120})
	r := w.Run(p, sx4.RunOpts{})
	if r.Clocks < 100*100 {
		t.Errorf("scalar work undercharged: %v clocks", r.Clocks)
	}
}
