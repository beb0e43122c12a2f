package ncar

import (
	"sx4bench/internal/fftpack"
	"sx4bench/internal/kernels"
	"sx4bench/internal/radabs"
	"sx4bench/internal/sx4/prog"
	"sx4bench/internal/target"
)

// benchTraces caches the compiled form of every benchmark trace the
// drivers revisit: the figure sweeps, the cross-machine table, the
// resilient runner and the scalar anchors all re-time the same trace
// shapes (per point, machine and report section), and each trace is a
// pure function of its shape parameters. Cached compiled traces run
// through Target.RunCompiled, skipping per-run trace construction and
// fingerprint hashing; the results are bit-identical to Run.
var benchTraces target.TraceCache[traceKey]

// traceKey identifies a cached trace by family and shape.
type traceKey struct {
	fam  string
	n, m int
}

func copyTrace(k kernels.Copy) *prog.Compiled {
	return benchTraces.Get(traceKey{"copy", k.N, k.M}, func() prog.Program { return k.Trace() })
}

func iaTrace(k kernels.IA) *prog.Compiled {
	return benchTraces.Get(traceKey{"ia", k.N, k.M}, func() prog.Program { return k.Trace() })
}

func xposeTrace(k kernels.Xpose) *prog.Compiled {
	return benchTraces.Get(traceKey{"xpose", k.N, k.M}, func() prog.Program { return k.Trace() })
}

func rfftTrace(n, m int) *prog.Compiled {
	return benchTraces.Get(traceKey{"rfft", n, m}, func() prog.Program { return fftpack.RFFTTrace(n, m) })
}

func vfftTrace(n, m int) *prog.Compiled {
	return benchTraces.Get(traceKey{"vfft", n, m}, func() prog.Program { return fftpack.VFFTTrace(n, m) })
}

func radabsTrace(ncol, nlev int) *prog.Compiled {
	return benchTraces.Get(traceKey{"radabs", ncol, nlev}, func() prog.Program { return radabs.Trace(ncol, nlev) })
}
