package mom

import (
	"fmt"
	"math"

	"sx4bench/internal/sx4/prog"
	"sx4bench/internal/target"
)

// Scaling classes of the step's phases. MOM 1.1's parallel behaviour on
// shared-memory vector machines decomposes into work that parallelizes
// cleanly over latitude rows and levels, work whose effective speedup
// grows only like sqrt(p) (the barotropic relaxation with its
// sweep-order dependencies, and the data-dependent convective
// adjustment with its load imbalance), and the serial diagnostics the
// benchmark prints every 10 steps. The sqrt law is an empirical fit to
// the paper's measured Table 7 speedups; see EXPERIMENTS.md.
const (
	phasePerfect = "baroclinic"
	phaseEOS     = "eos-vertical"
	phaseSqrtBT  = "barotropic"
	phaseSqrtCA  = "convective"
	phaseSerial  = "diagnostics"
)

// Trace parameters (per step, high-resolution benchmark).
const (
	columnLoops     = 18 // depth-innermost operator loops per column
	columnLoopFlops = 20 // flops per element in those loops
	tracerLoops     = 18 // longitude-innermost tracer loops (2 tracers x 6)
	tracerLoopFlops = 25
	eosFlops        = 40
	sorIterations   = 1900 // simple relaxation on the big rigid-lid grid
	sorFlops        = 12
	convScalarOps   = 170 // non-vectorized instructions per point (masked branches)
	diagOpsPerPoint = 20  // serial global-sum instruction count per point
)

// StepTrace builds the operation trace of one high-resolution MOM time
// step.
func StepTrace(cfg Config) prog.Program {
	nx, ny, nz := cfg.NLon, cfg.NLat, cfg.NLev
	columns := int64(nx) * int64(ny)

	return prog.Program{
		Name: fmt.Sprintf("MOM-%s-step", cfg.Name),
		Phases: []prog.Phase{
			{
				// Depth-innermost operator loops: short vectors (VL =
				// nlev), one trip per column per loop.
				Name: phasePerfect, Parallel: true, Barriers: 1,
				Loops: []prog.Loop{
					{
						Trips: columns * columnLoops,
						Body: []prog.Op{
							{Class: prog.VLoad, VL: 4 * nz, Stride: 1},
							{Class: prog.VMul, VL: nz, FlopsPerElem: columnLoopFlops / 2},
							{Class: prog.VAdd, VL: nz, FlopsPerElem: columnLoopFlops / 2},
							{Class: prog.VStore, VL: nz, Stride: 1},
						},
					},
					{
						// Longitude-innermost tracer loops: long vectors.
						Trips: int64(ny) * int64(nz) * tracerLoops,
						Body: []prog.Op{
							{Class: prog.VLoad, VL: 6 * nx, Stride: 1},
							{Class: prog.VMul, VL: nx, FlopsPerElem: tracerLoopFlops / 2},
							{Class: prog.VAdd, VL: nx, FlopsPerElem: tracerLoopFlops - tracerLoopFlops/2},
							{Class: prog.VStore, VL: 2 * nx, Stride: 1},
						},
					},
				},
			},
			{
				// Equation of state (intrinsic heavy) and the implicit
				// vertical mixing tridiagonal solves.
				Name: phaseEOS, Parallel: true, Barriers: 1,
				Loops: []prog.Loop{
					{
						Trips: int64(ny) * int64(nz),
						Body: []prog.Op{
							{Class: prog.VLoad, VL: 2 * nx, Stride: 1},
							{Class: prog.VMul, VL: nx, FlopsPerElem: eosFlops},
							{Class: prog.VIntrinsic, VL: nx, Intr: prog.Pow},
							{Class: prog.VStore, VL: nx, Stride: 1},
						},
					},
					{
						Trips: int64(ny) * int64(nz) * 3,
						Body: []prog.Op{
							{Class: prog.VLoad, VL: 3 * nx, Stride: 1},
							{Class: prog.VMul, VL: nx, FlopsPerElem: 3},
							{Class: prog.VAdd, VL: nx, FlopsPerElem: 3},
							{Class: prog.VDiv, VL: nx},
							{Class: prog.VStore, VL: nx, Stride: 1},
						},
					},
				},
			},
			{
				// Rigid-lid barotropic relaxation (red/black sweeps:
				// stride-2 access is conflict-free on the SX-4).
				Name: phaseSqrtBT, Parallel: true, Barriers: 1,
				Loops: []prog.Loop{{
					Trips: int64(sorIterations) * int64(ny),
					Body: []prog.Op{
						{Class: prog.VLoad, VL: 5 * nx / 2, Stride: 2},
						{Class: prog.VMul, VL: nx / 2, FlopsPerElem: sorFlops / 2},
						{Class: prog.VAdd, VL: nx / 2, FlopsPerElem: sorFlops / 2},
						{Class: prog.VStore, VL: nx / 2, Stride: 2},
					},
				}},
			},
			{
				// Convective adjustment: data-dependent branches that
				// the compiler leaves scalar.
				Name: phaseSqrtCA, Parallel: true, Barriers: 1,
				Loops: []prog.Loop{{
					Trips: int64(ny) * int64(nz),
					Body: []prog.Op{
						{Class: prog.Scalar, Count: convScalarOps * nx, FlopsPerElem: 8 * nx},
					},
				}},
			},
			{
				// Every-10-step diagnostics, amortized per step: global
				// sums over the 3-D grid plus formatted output, serial.
				Name:         phaseSerial,
				SerialClocks: float64(cfg.Points()) * diagOpsPerPoint / 2 / 10,
			},
		},
	}
}

// phaseClass returns the scaling exponent class for a phase: 1 for
// perfectly parallel, 0.5 for sqrt(p), 0 for serial.
func phaseClass(name string) float64 {
	switch name {
	case phasePerfect, phaseEOS:
		return 1
	case phaseSqrtBT, phaseSqrtCA:
		return 0.5
	case phaseSerial:
		return 0
	}
	panic(fmt.Sprintf("mom: unknown phase %q", name))
}

// stepTraces caches the compiled step trace per configuration: the
// Table 7 sweep re-times the same step at every processor count, and
// the trace is a pure function of the configuration.
var stepTraces target.TraceCache[Config]

func compiledStepTrace(cfg Config) *prog.Compiled {
	return stepTraces.Get(cfg, func() prog.Program { return StepTrace(cfg) })
}

// StepSeconds models one high-resolution step on procs CPUs.
func StepSeconds(m target.Target, cfg Config, procs int) float64 {
	r := m.RunCompiled(compiledStepTrace(cfg), target.RunOpts{Procs: 1})
	var clocks float64
	for _, ph := range r.Phases {
		alpha := phaseClass(ph.Name)
		clocks += ph.Clocks / math.Pow(float64(procs), alpha)
	}
	return m.Spec().Seconds(clocks)
}

// StepFlops returns the credited flops of one step.
func StepFlops(cfg Config) int64 { return compiledStepTrace(cfg).Flops }

// Benchmark350 models the Table 7 measurement: the time for 350 time
// steps (the paper differences a 390-step and a 40-step run to remove
// initialization).
func Benchmark350(m target.Target, procs int) float64 {
	return 350 * StepSeconds(m, HighRes, procs)
}

// Table7CPUCounts is the paper's processor sweep (no 2-CPU run was
// made, "for expediency").
var Table7CPUCounts = []int{1, 4, 8, 16, 32}

// Speedups returns the Table 7 speedup column for the machine.
func Speedups(m target.Target) map[int]float64 {
	t1 := Benchmark350(m, 1)
	out := map[int]float64{}
	for _, p := range Table7CPUCounts {
		out[p] = t1 / Benchmark350(m, p)
	}
	return out
}

// SustainedMFLOPS returns the single-CPU rate of the benchmark.
func SustainedMFLOPS(m target.Target) float64 {
	return float64(StepFlops(HighRes)) / StepSeconds(m, HighRes, 1) / 1e6
}
