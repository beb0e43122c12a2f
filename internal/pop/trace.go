package pop

import (
	"fmt"

	"sx4bench/internal/sx4/prog"
	"sx4bench/internal/target"
)

// Trace parameters for one 2-degree time step. The characteristic of
// the measured configuration is that every whole-array CSHIFT compiled
// to scalar code (pre-release F90 compiler), while the arithmetic
// between shifts vectorized, leaving POP at 537 MFLOPS on one CPU.
const (
	// cshifts3D counts whole-array 3-D shift operations per step
	// (momentum and tracer stencils across the level stack); each
	// processes one horizontal plane per level per trip.
	cshifts3D = 20
	// cshiftScalarOps is the scalar instruction count per element of a
	// non-vectorized CSHIFT (load, index arithmetic, store, loop
	// control).
	cshiftScalarOps = 4
	// cgIterations is the typical preconditioned implicit
	// free-surface iteration count per step; each iteration applies
	// the 5-point Helmholtz operator (4 shifts) and two dot products.
	cgIterations = 25
	// Arithmetic densities.
	momentumLoops     = 12 // 3-D baroclinic + tracer loop passes
	momentumLoopFlops = 28
	stencilFlops      = 12
	cgVectorFlops     = 10
)

// StepTrace builds the trace of one POP step at a configuration.
func StepTrace(cfg Config) prog.Program {
	n := cfg.NLon * cfg.NLat

	return prog.Program{
		Name: fmt.Sprintf("POP-%s-step", cfg.Name),
		Phases: []prog.Phase{
			{
				// Non-vectorized CSHIFTs: the dominant cost.
				Name: "cshift", Parallel: true, Barriers: 1,
				Loops: []prog.Loop{
					{
						// 3-D shifts, one plane per level per trip.
						Trips: int64(cshifts3D) * int64(cfg.NLev),
						Body: []prog.Op{
							{Class: prog.Scalar, Count: cshiftScalarOps * n},
						},
					},
					{
						// 2-D shifts inside the CG solve.
						Trips: 4 * int64(cgIterations),
						Body: []prog.Op{
							{Class: prog.Scalar, Count: cshiftScalarOps * n},
						},
					},
				},
			},
			{
				// Vectorized whole-array arithmetic: long vectors over
				// full horizontal planes.
				Name: "arithmetic", Parallel: true, Barriers: 1,
				Loops: []prog.Loop{
					{
						// Baroclinic momentum and tracer updates.
						Trips: int64(momentumLoops) * int64(cfg.NLev),
						Body: []prog.Op{
							{Class: prog.VLoad, VL: 4 * n, Stride: 1},
							{Class: prog.VMul, VL: n, FlopsPerElem: momentumLoopFlops / 2},
							{Class: prog.VAdd, VL: n, FlopsPerElem: momentumLoopFlops / 2},
							{Class: prog.VStore, VL: n, Stride: 1},
						},
					},
					{
						// Free-surface stencil updates.
						Trips: 8,
						Body: []prog.Op{
							{Class: prog.VLoad, VL: 4 * n, Stride: 1},
							{Class: prog.VMul, VL: n, FlopsPerElem: stencilFlops / 2},
							{Class: prog.VAdd, VL: n, FlopsPerElem: stencilFlops / 2},
							{Class: prog.VStore, VL: n, Stride: 1},
						},
					},
					{
						// CG vector updates and reductions.
						Trips: int64(cgIterations),
						Body: []prog.Op{
							{Class: prog.VLoad, VL: 3 * n, Stride: 1},
							{Class: prog.VMul, VL: n, FlopsPerElem: cgVectorFlops / 2},
							{Class: prog.VAdd, VL: n, FlopsPerElem: cgVectorFlops / 2},
							{Class: prog.VStore, VL: n, Stride: 1},
						},
					},
				},
			},
		},
	}
}

// stepTraces caches the compiled step trace per configuration for the
// read-only run sites. StepTrace itself stays a fresh builder —
// VectorizedCSHIFTSpeedup edits the returned program in place, which
// must never reach a shared copy.
var stepTraces target.TraceCache[Config]

// CompiledStepTrace returns the step trace in its cached compiled
// form, for callers that time the same configuration repeatedly.
func CompiledStepTrace(cfg Config) *prog.Compiled {
	return stepTraces.Get(cfg, func() prog.Program { return StepTrace(cfg) })
}

// StepFlops returns the credited flops per step.
func StepFlops(cfg Config) int64 { return CompiledStepTrace(cfg).Flops }

// SustainedMFLOPS returns the single-processor rate of the 2-degree
// benchmark — the paper's 537 MFLOPS observation.
func SustainedMFLOPS(m target.Target) float64 {
	r := m.RunCompiled(CompiledStepTrace(TwoDegree), target.RunOpts{Procs: 1})
	return r.MFLOPS()
}

// VectorizedCSHIFTSpeedup models the headroom the paper alludes to: if
// CSHIFT vectorized (as a strided vector copy), how much faster would
// the step run?
func VectorizedCSHIFTSpeedup(m target.Target) float64 {
	base := m.Run(StepTrace(TwoDegree), target.RunOpts{Procs: 1}).Seconds

	fixed := StepTrace(TwoDegree)
	n := TwoDegree.NLon * TwoDegree.NLat
	fixed.Phases[0].Loops[0].Body = []prog.Op{
		{Class: prog.VLoad, VL: n, Stride: 1},
		{Class: prog.VStore, VL: n, Stride: 1},
	}
	improved := m.Run(fixed, target.RunOpts{Procs: 1}).Seconds
	return base / improved
}
