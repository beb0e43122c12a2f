// Package ncar assembles the NCAR Benchmark Suite: thirteen kernels and
// three complete geophysical applications in seven categories, together
// with the runners that regenerate every table and figure of the paper.
// This is the top of the library: everything below (the SX-4 machine
// model, the numerical substrates, the OS model) plugs in here.
package ncar

import (
	"fmt"
	"sync"

	"sx4bench/internal/ccm2"
	"sx4bench/internal/core"
	"sx4bench/internal/core/sched"
	"sx4bench/internal/elefunt"
	"sx4bench/internal/fftpack"
	"sx4bench/internal/hint"
	"sx4bench/internal/iobench"
	"sx4bench/internal/kernels"
	"sx4bench/internal/mom"
	"sx4bench/internal/paranoia"
	"sx4bench/internal/pop"
	"sx4bench/internal/radabs"
	"sx4bench/internal/sx4/iop"
	"sx4bench/internal/target"
)

// Category is one of the suite's seven benchmark groups.
type Category int

const (
	Correctness Category = iota
	MemoryBandwidth
	CodingStyle
	RawPerformance
	InputOutput
	ProductionMix
	Applications
)

var categoryNames = [...]string{
	"correctness of arithmetic and intrinsics",
	"memory bandwidth",
	"coding style comparison",
	"raw performance",
	"I/O to disk system and network",
	"production mix",
	"complete applications",
}

func (c Category) String() string {
	if c < 0 || int(c) >= len(categoryNames) {
		return fmt.Sprintf("category(%d)", int(c))
	}
	return categoryNames[c]
}

// Benchmark describes one suite member.
type Benchmark struct {
	Name        string
	Category    Category
	Description string
	// KTries is the repetition count; the best time is reported. The
	// paper used 20 for the kernels and 5 for VFFT ("a matter of
	// expedience").
	KTries int
}

// suite is the benchmark suite in the paper's order.
var suite = [...]Benchmark{
	{"PARANOIA", Correctness, "arithmetic operation test", 1},
	{"ELEFUNT", Correctness, "elementary function test", 1},
	{"COPY", MemoryBandwidth, "memory to memory", 20},
	{"IA", MemoryBandwidth, "indirect addressing speed", 20},
	{"XPOSE", MemoryBandwidth, "array transpose", 20},
	{"RFFT", CodingStyle, `"scalar" FFT`, 20},
	{"VFFT", CodingStyle, `"vectorized" FFT`, 5},
	{"RADABS", RawPerformance, "processor performance", 20},
	{"IO", InputOutput, "memory to disk", 1},
	{"HIPPI", InputOutput, "HIPPI throughput", 1},
	{"NETWORK", InputOutput, "external network evaluation", 1},
	{"PRODLOAD", ProductionMix, "simulated production job load", 1},
	{"CCM2", Applications, "global climate model", 1},
	{"MOM", Applications, "F77 ocean model", 1},
	{"POP", Applications, "F90 ocean model", 1},
}

// Suite returns the fifteen benchmarks in the paper's order, as a
// fresh slice the caller may modify.
func Suite() []Benchmark { return append([]Benchmark(nil), suite[:]...) }

// ByName returns a suite member.
func ByName(name string) (Benchmark, error) {
	for _, b := range suite {
		if b.Name == name {
			return b, nil
		}
	}
	return Benchmark{}, fmt.Errorf("ncar: no benchmark %q in the suite", name)
}

// DefaultNoise is the simulated system jitter the KTRIES rule smooths.
func DefaultNoise() *core.Noise { return core.NewNoise(0.03, 1996) }

// --- Tables ---

// Table1 regenerates the HINT-vs-RADABS comparison across the four
// comparison systems.
func Table1() core.Table {
	t := core.Table{
		ID:      "table1",
		Title:   `Comparison of the "MQUIPS" metric and the Mflops measurement from RADABS`,
		Headers: []string{"Benchmark", "SUN SPARC20", "IBM RS6K 590", "CRI J90", "CRI YMP"},
	}
	// The four comparison systems in the paper's Table 1 column
	// order, resolved through the machine registry so this layer
	// never names a concrete model type.
	targets := make([]target.Target, 0, 4)
	for _, name := range []string{"sparc20", "rs6000", "j90", "ymp"} {
		targets = append(targets, target.MustShared(name))
	}
	hintRow := []string{"HINT (MQUIPS)"}
	radRow := []string{"RADABS (MFLOPS)"}
	c := radabsTrace(radabs.BenchmarkColumns, radabs.DefaultLevels)
	for _, tgt := range targets {
		hintRow = append(hintRow, fmt.Sprintf("%.1f", hint.ModelMQUIPS(tgt.Scalar())))
		r := tgt.RunCompiled(c, target.RunOpts{Procs: 1})
		radRow = append(radRow, fmt.Sprintf("%.1f", r.MFLOPS()))
	}
	t.Rows = [][]string{hintRow, radRow}
	return t
}

// Table2 renders the benchmarked system's specifications.
func Table2() core.Table {
	c := target.MustShared("sx4-32").Spec()
	t := core.Table{
		ID:      "table2",
		Title:   "Specifications of the NEC SX-4/32 system used for the benchmarks",
		Headers: []string{"Item", "Value"},
	}
	// The paper's Table 2 lists the design-point (8.0 ns) peak numbers
	// even though the benchmarked clock was 9.2 ns.
	t.AddRow("Clock Rate", fmt.Sprintf("%.1f ns", c.ClockNS))
	t.AddRow("Peak FLOP Rate Per Processor", fmt.Sprintf("%.0f GFLOPS", float64(2*c.VectorPipes)/8.0))
	t.AddRow("Peak Memory Bandwidth", fmt.Sprintf("%.0f GB/sec/proc", float64(c.PortWordsPerClock*8)/8.0))
	t.AddRow("Disk Capacity", fmt.Sprintf("%.0f GB", c.DiskCapacityGB))
	t.AddRow("Main Memory", fmt.Sprintf("%.0f GB", c.MainMemoryGB))
	t.AddRow("Extended Memory", fmt.Sprintf("%.0f GB", c.XMUGB))
	t.AddRow("Cooling", "air cooled")
	t.AddRow("Power Consumption", fmt.Sprintf("%.1f KVA", c.PowerKVA))
	return t
}

// Table3 regenerates the ELEFUNT intrinsic rates on the SX-4/1.
func Table3(m target.Target) core.Table {
	t := core.Table{
		ID:      "table3",
		Title:   "Single processor 64-bit intrinsic rates (millions of calls per second)",
		Headers: append([]string{"Function"}, elefunt.Functions...),
	}
	const n = 1 << 20
	row := []string{"Mcalls/s"}
	for _, fn := range elefunt.Functions {
		r := m.Run(elefunt.PerfTrace(fn, n), target.RunOpts{Procs: 1})
		row = append(row, fmt.Sprintf("%.1f", float64(elefunt.PerfCalls(n))/r.Seconds/1e6))
	}
	t.Rows = [][]string{row}
	return t
}

// Table4 renders the CCM2 resolution table.
func Table4() core.Table {
	t := core.Table{
		ID:      "table4",
		Title:   "Typical CCM2 resolutions, grid spacings, and time steps",
		Headers: []string{"Model Resolution", "Horizontal Grid Size", "Nominal Grid Spacing", "Time Step"},
	}
	for _, r := range ccm2.Resolutions {
		t.AddRow(r.Name,
			fmt.Sprintf("%d x %d", r.NLat, r.NLon),
			fmt.Sprintf("%.1f degrees", r.GridSpacingDeg),
			fmt.Sprintf("%.1f min.", r.TimeStepMin))
	}
	return t
}

// Table5 regenerates the one-year simulation times.
func Table5(m target.Target) core.Table {
	t := core.Table{
		ID:      "table5",
		Title:   "Time in seconds to simulate one year of climate",
		Headers: []string{"Resolution", "Time"},
	}
	for _, name := range []string{"T42L18", "T63L18"} {
		res, _ := ccm2.ResolutionByName(name)
		_, _, total := ccm2.YearSim(m, res, m.Spec().CPUs)
		t.AddRow(name, fmt.Sprintf("%.2f", total))
	}
	return t
}

// Table6 regenerates the ensemble test.
func Table6(m target.Target) core.Table {
	r := ccm2.EnsembleTest(m)
	t := core.Table{
		ID:      "table6",
		Title:   "Single and multiple instance times for the ensemble test",
		Headers: []string{"Run", "Seconds"},
	}
	t.AddRow("single 4-CPU instance", fmt.Sprintf("%.2f", r.SingleSeconds))
	t.AddRow("eight 4-CPU instances", fmt.Sprintf("%.2f", r.MultipleSeconds))
	t.AddRow("relative degradation", fmt.Sprintf("%.2f%%", r.DegradationPct))
	return t
}

// Table7 regenerates the MOM scalability table.
func Table7(m target.Target) core.Table {
	t := core.Table{
		ID:      "table7",
		Title:   "MOM Ocean Model benchmark performance (350 time steps)",
		Headers: []string{"CPUs", "Time for 350 time steps", "Speedup"},
	}
	t1 := mom.Benchmark350(m, 1)
	for _, p := range mom.Table7CPUCounts {
		tp := mom.Benchmark350(m, p)
		t.AddRow(fmt.Sprintf("%d", p), fmt.Sprintf("%.2f", tp), fmt.Sprintf("%.2f", t1/tp))
	}
	return t
}

// --- Figures ---

// sweepPoints measures one figure curve in parallel: point i of the
// sweep draws jitter from noise.Stream(base+i), so the values are
// identical no matter how many workers run the sweep or in which order
// the points complete.
func sweepPoints(m target.Target, n int, noise *core.Noise, base int64,
	point func(i int, stream *core.Noise) core.Point) core.Series {
	pts, _ := sched.Map(0, n, func(i int) (core.Point, error) {
		return point(i, noise.Stream(base+int64(i))), nil
	})
	return core.Series{Points: pts}
}

// Fig5 regenerates the memory-bandwidth sweeps (COPY, IA, XPOSE) on a
// single processor, KTRIES best-of-k under jitter.
func Fig5(m target.Target, perDecade int) core.Figure {
	noise := DefaultNoise()
	f := core.Figure{
		ID:     "fig5",
		Title:  "Measured memory bandwidth for three memory benchmarks (SX-4/1)",
		XLabel: "axis length N",
		YLabel: "MB/sec",
	}
	copyKs := kernels.CopySweep(perDecade)
	copySeries := sweepPoints(m, len(copyKs), noise, 0, func(i int, s *core.Noise) core.Point {
		k := copyKs[i]
		meas := core.RunCompiled(m, copyTrace(k), target.RunOpts{Procs: 1}, 20, s, k.PayloadBytes())
		return core.Point{X: float64(k.N), Y: meas.MBps()}
	})
	copySeries.Label = "COPY"
	iaKs := kernels.IASweep(perDecade)
	iaSeries := sweepPoints(m, len(iaKs), noise, 1000, func(i int, s *core.Noise) core.Point {
		k := iaKs[i]
		meas := core.RunCompiled(m, iaTrace(k), target.RunOpts{Procs: 1}, 20, s, k.PayloadBytes())
		return core.Point{X: float64(k.N), Y: meas.MBps()}
	})
	iaSeries.Label = "IA"
	xpKs := kernels.XposeSweep(perDecade)
	xpSeries := sweepPoints(m, len(xpKs), noise, 2000, func(i int, s *core.Noise) core.Point {
		k := xpKs[i]
		meas := core.RunCompiled(m, xposeTrace(k), target.RunOpts{Procs: 1}, 20, s, k.PayloadBytes())
		return core.Point{X: float64(k.N), Y: meas.MBps()}
	})
	xpSeries.Label = "XPOSE"
	f.Series = []core.Series{copySeries, iaSeries, xpSeries}
	return f
}

// Fig6 regenerates the RFFT performance curves (three length families).
func Fig6(m target.Target) core.Figure {
	noise := DefaultNoise()
	f := core.Figure{
		ID:     "fig6",
		Title:  "RFFT benchmark on the SX-4/1",
		XLabel: "FFT length N",
		YLabel: "MFLOPS",
	}
	rfftLengths := fftpack.RFFTLengths()
	for fi, fam := range []string{"2^n", "3*2^n", "5*2^n"} {
		lengths := rfftLengths[fam]
		s := sweepPoints(m, len(lengths), noise, int64(1000*fi), func(i int, st *core.Noise) core.Point {
			n := lengths[i]
			mm := fftpack.RFFTInstances(n)
			meas := core.RunCompiled(m, rfftTrace(n, mm), target.RunOpts{Procs: 1}, 20, st, 0)
			return core.Point{X: float64(n), Y: fftpack.NominalMFLOPS(n, mm, meas.Seconds)}
		})
		s.Label = fam
		f.Series = append(f.Series, s)
	}
	return f
}

// Fig7 regenerates the VFFT performance curves: for each length family
// the curve at the largest instance count, plus the M sweep at N=256.
func Fig7(m target.Target) core.Figure {
	noise := DefaultNoise()
	f := core.Figure{
		ID:     "fig7",
		Title:  "VFFT benchmark on the SX-4/1",
		XLabel: "FFT length N",
		YLabel: "MFLOPS",
	}
	vfftLengths := fftpack.VFFTLengths()
	for fi, fam := range []string{"2^n", "3*2^n", "5*2^n"} {
		lengths := vfftLengths[fam]
		s := sweepPoints(m, len(lengths), noise, int64(1000*fi), func(i int, st *core.Noise) core.Point {
			n := lengths[i]
			meas := core.RunCompiled(m, vfftTrace(n, 500), target.RunOpts{Procs: 1}, 5, st, 0)
			return core.Point{X: float64(n), Y: fftpack.NominalMFLOPS(n, 500, meas.Seconds)}
		})
		s.Label = fam + " (M=500)"
		f.Series = append(f.Series, s)
	}
	sweep := sweepPoints(m, len(fftpack.VFFTInstanceCounts), noise, 3000, func(i int, st *core.Noise) core.Point {
		mm := fftpack.VFFTInstanceCounts[i]
		meas := core.RunCompiled(m, vfftTrace(256, mm), target.RunOpts{Procs: 1}, 5, st, 0)
		return core.Point{X: float64(mm), Y: fftpack.NominalMFLOPS(256, mm, meas.Seconds)}
	})
	sweep.Label = "N=256, M sweep"
	f.Series = append(f.Series, sweep)
	return f
}

// Fig8 regenerates the CCM2 scalability figure: sustained GFLOPS versus
// processor count for T42, T106 and T170.
func Fig8(m target.Target) core.Figure {
	f := core.Figure{
		ID:     "fig8",
		Title:  "CCM2 performance vs. processors (Cray-equivalent GFLOPS)",
		XLabel: "processors",
		YLabel: "GFLOPS",
	}
	for _, name := range []string{"T42L18", "T106L18", "T170L18"} {
		res, _ := ccm2.ResolutionByName(name)
		s := core.Series{Label: name}
		for _, p := range []int{1, 2, 4, 8, 16, 32} {
			s.Append(float64(p), ccm2.SustainedGFLOPS(m, res, p))
		}
		f.Series = append(f.Series, s)
	}
	return f
}

// --- Scalar results ---

// RADABSMFlops returns the single-CPU RADABS rate (paper: 865.9).
func RADABSMFlops(m target.Target) float64 {
	c := radabsTrace(radabs.BenchmarkColumns, radabs.DefaultLevels)
	return m.RunCompiled(c, target.RunOpts{Procs: 1}).MFLOPS()
}

// POPMFlops returns the single-CPU 2-degree POP rate (paper: 537).
func POPMFlops(m target.Target) float64 { return pop.SustainedMFLOPS(m) }

// CorrectnessReport runs PARANOIA and ELEFUNT on the host arithmetic.
type CorrectnessResult struct {
	Paranoia paranoia.Report
	Elefunt  []elefunt.Result
	Pass     bool
}

var (
	correctnessOnce   sync.Once
	correctnessResult CorrectnessResult
)

// RunCorrectness executes the correctness category. PARANOIA and
// ELEFUNT probe the host's floating-point arithmetic with fixed seeds,
// so their verdict is a constant of the process; the (expensive) probe
// runs once and every later call — the correctness experiment, the
// report, repeated RunAll passes — returns the memoized result.
func RunCorrectness() CorrectnessResult {
	correctnessOnce.Do(func() {
		p := paranoia.Run()
		e := elefunt.RunAll()
		correctnessResult = CorrectnessResult{
			Paranoia: p,
			Elefunt:  e,
			Pass:     p.Pass() && elefunt.AllPass(e),
		}
	})
	return correctnessResult
}

// IOCategory runs the disk, HIPPI and network benchmarks.
type IOCategoryResult struct {
	History    []iobench.HistoryWrite
	HIPPI      []iobench.HIPPIPoint
	Network    []iobench.NetResult
	Concurrent []iobench.ConcurrentIOResult
}

// RunIOCategory executes the I/O category on the node's subsystem.
func RunIOCategory() IOCategoryResult {
	sub := iop.New()
	t63, _ := ccm2.ResolutionByName("T63L18")
	var conc []iobench.ConcurrentIOResult
	for _, writers := range []int{1, 4, 16, 32} {
		conc = append(conc, iobench.ConcurrentHistoryWrite(sub, t63, writers))
	}
	return IOCategoryResult{
		History:    iobench.IOSweep(sub.DiskArray),
		HIPPI:      iobench.HIPPISweep(sub, 256<<20),
		Network:    iobench.RunNetwork(iobench.NewFDDI(), iobench.StandardScript()),
		Concurrent: conc,
	}
}
