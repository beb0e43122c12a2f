// Package machine provides performance models of the comparison
// systems the paper measures against the NCAR suite (Table 1): the
// Cray Research Y-MP, C90 and J90 parallel vector processors, and the
// SUN Sparc 20 and IBM RS6000/590 workstations.
//
// The Cray machines reuse the sx4 vector engine with era-appropriate
// parameters (pipe counts, clocks, memory geometry, math-library
// speed). The workstations use a separate cache-based scalar model:
// vector operations execute as scalar loops whose memory cost depends
// on whether the working set fits in cache — which is exactly why the
// HINT/RADABS ranking inverts between workstations and vector machines.
package machine

import (
	"fmt"
	"hash/fnv"
	"math"

	"sx4bench/internal/sx4"
	"sx4bench/internal/sx4/prog"
	"sx4bench/internal/target"
)

// ScalarProfile is the machine-agnostic scalar-path description; the
// alias keeps the historical machine.ScalarProfile spelling working.
type ScalarProfile = target.ScalarProfile

// Target is a modeled machine; the interface now lives in the leaf
// package target, alongside the registry the constructors below
// populate.
type Target = target.Target

// --- Cray vector baselines (sx4 engine with different parameters) ---

// Vector wraps an sx4.Machine with a scalar profile.
type Vector struct {
	*sx4.Machine
	scalar ScalarProfile
}

var _ target.Target = (*Vector)(nil)

// Scalar returns the machine's scalar-path description.
func (v *Vector) Scalar() ScalarProfile { return v.scalar }

// Clone returns a fresh machine with the same configuration, scalar
// profile, and a cold compiled-trace cache. (The promoted sx4.Machine
// Clone would drop the Cray scalar profile.)
func (v *Vector) Clone() target.Target {
	return &Vector{Machine: sx4.New(v.Machine.Config()), scalar: v.scalar}
}

// CrayYMP models one processor of a CRI Y-MP: 6 ns clock, one add and
// one multiply pipe (333 MFLOPS peak), 64-element vector registers,
// no data cache.
func CrayYMP() *Vector {
	c := baseCray("CRI Y-MP", 6.0, 8, 1, 64)
	c.IntrinsicScale = 8
	return &Vector{
		Machine: sx4.New(c),
		scalar: ScalarProfile{
			ClockNS: 6.0, IssuePerClock: 1,
			HasCache: false, MemClocksPerWord: 8,
		},
	}
}

// CrayC90 models one processor of a CRI C90: 4.167 ns clock, dual
// vector pipes (~952 MFLOPS peak), 128-element registers.
func CrayC90() *Vector {
	c := baseCray("CRI C90", 4.167, 16, 2, 128)
	c.PortWordsPerClock = 6
	c.NodeWordsPerClock = 96
	c.IntrinsicScale = 4
	return &Vector{
		Machine: sx4.New(c),
		scalar: ScalarProfile{
			ClockNS: 4.167, IssuePerClock: 1,
			HasCache: false, MemClocksPerWord: 8,
		},
	}
}

// CrayJ90 models one processor of a CRI J90: a 10 ns CMOS Cray with
// one pipe pair (200 MFLOPS peak) and a slower memory system.
func CrayJ90() *Vector {
	c := baseCray("CRI J90", 10.0, 8, 1, 64)
	c.PortWordsPerClock = 2
	c.NodeWordsPerClock = 16
	c.MemStartupClocks = 30
	c.IntrinsicScale = 14
	return &Vector{
		Machine: sx4.New(c),
		scalar: ScalarProfile{
			ClockNS: 10.0, IssuePerClock: 1,
			HasCache: false, MemClocksPerWord: 8,
		},
	}
}

func baseCray(name string, clockNS float64, cpus, pipes, regElems int) sx4.Config {
	c := sx4.NewConfig(cpus, 1)
	c.Name = name
	c.ClockNS = clockNS
	c.VectorPipes = pipes
	c.VectorRegElems = regElems
	c.MemoryBanks = 256
	c.BankBusyClocks = 4
	c.PortWordsPerClock = 3
	c.NodeWordsPerClock = 48
	c.VectorStartupClocks = 15
	c.MemStartupClocks = 20
	c.GatherWordsPerClock = float64(pipes) / 2
	c.StridedPenalty = 2
	c.ScalarIssuePerClock = 1
	// The comparison systems were benchmarked compute-only; no I/O
	// subsystem is modeled (gates the disk-dependent table rows).
	c.DiskCapacityGB = 0
	c.DiskBytesPerSec = 0
	return c
}

// --- Workstation (cache-based scalar) model ---

// WorkstationParams is the calibration of the cache-based scalar
// model.
type WorkstationParams struct {
	ModelName string
	ClockNS   float64
	// FlopsPerClock is the sustained floating-point issue rate.
	FlopsPerClock float64
	// CacheKB is the data-cache size.
	CacheKB int
	// CacheWordsPerClock and MemWordsPerClock are sustained bandwidths
	// inside and beyond the cache.
	CacheWordsPerClock float64
	MemWordsPerClock   float64
	// GatherPenalty multiplies the memory cost of indirect access that
	// misses cache.
	GatherPenalty float64
	// IntrinsicClocks is the average scalar libm call cost.
	IntrinsicClocks float64
	// IssuePerClock is the integer/control issue width.
	IssuePerClock float64
}

// Workstation models a cache-based superscalar workstation: vector
// operations execute as scalar loops; memory cost depends on whether
// the loop's working set fits in the data cache. Build one with
// NewWorkstation; its parameters are fixed from then on.
type Workstation struct {
	params WorkstationParams
	// progs caches compiled per-phase timings keyed by program
	// fingerprint — the workstation model ignores RunOpts entirely, so
	// a compiled trace answers every Run with a flat copy.
	progs *target.FPCache[*wsTiming]
	// fp is the configuration fingerprint, stamped by NewWorkstation.
	fp uint64
}

var _ target.Target = (*Workstation)(nil)

// NewWorkstation returns a workstation with the given parameters and a
// cold compiled-trace cache.
func NewWorkstation(p WorkstationParams) *Workstation {
	return &Workstation{
		params: p,
		progs:  &target.FPCache[*wsTiming]{},
		fp:     p.fingerprint(),
	}
}

// SunSparc20 models a 75 MHz SuperSPARC SUN Sparc 20.
func SunSparc20() *Workstation {
	return NewWorkstation(WorkstationParams{
		ModelName: "SUN Sparc 20", ClockNS: 13.33,
		FlopsPerClock: 0.55, CacheKB: 16,
		CacheWordsPerClock: 1, MemWordsPerClock: 0.12,
		GatherPenalty: 1.5, IntrinsicClocks: 100, IssuePerClock: 1.2,
	})
}

// IBMRS6000590 models a 66.5 MHz POWER2 IBM RS6000/590.
func IBMRS6000590() *Workstation {
	return NewWorkstation(WorkstationParams{
		ModelName: "IBM RS6000/590", ClockNS: 15.04,
		FlopsPerClock: 2.2, CacheKB: 256,
		CacheWordsPerClock: 2, MemWordsPerClock: 0.4,
		GatherPenalty: 1.5, IntrinsicClocks: 70, IssuePerClock: 2,
	})
}

// Name returns the model designation.
func (w *Workstation) Name() string { return w.params.ModelName }

// Scalar returns the workstation's scalar profile.
func (w *Workstation) Scalar() ScalarProfile {
	return ScalarProfile{
		ClockNS:            w.params.ClockNS,
		IssuePerClock:      w.params.IssuePerClock,
		HasCache:           true,
		CacheWordsPerClock: w.params.CacheWordsPerClock,
		MemClocksPerWord:   1 / w.params.MemWordsPerClock,
	}
}

// Spec returns the workstation's specification sheet: a uniprocessor
// with no modeled I/O subsystem.
func (w *Workstation) Spec() target.Spec {
	return target.Spec{
		CPUs: 1, Nodes: 1,
		ClockNS:          w.params.ClockNS,
		PeakMFLOPSPerCPU: w.PeakMFLOPS(),
	}
}

// Fingerprint returns the configuration fingerprint.
func (w *Workstation) Fingerprint() uint64 { return w.fp }

// fingerprint hashes the model parameters, so cached results can
// never be served across model variants.
func (p WorkstationParams) fingerprint() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "ws|%s|%v|%v|%d|%v|%v|%v|%v|%v",
		p.ModelName, p.ClockNS, p.FlopsPerClock, p.CacheKB,
		p.CacheWordsPerClock, p.MemWordsPerClock,
		p.GatherPenalty, p.IntrinsicClocks, p.IssuePerClock)
	return h.Sum64()
}

// Clone returns a fresh workstation with the same parameters and a
// cold compiled-trace cache.
func (w *Workstation) Clone() target.Target { return NewWorkstation(w.params) }

// CacheStats returns the workstation's compiled-trace cache counters.
func (w *Workstation) CacheStats() target.CacheStats { return w.progs.Stats() }

// Run executes a trace on the workstation model. opts.Procs is ignored
// (the Table 1 comparisons are single-processor), so the trace's
// compiled timing, lowered into the compiled-trace cache on first use,
// already holds the whole result.
func (w *Workstation) Run(p prog.Program, opts sx4.RunOpts) sx4.Result {
	return w.progs.LoadOrStore(p.Fingerprint(), func() *wsTiming {
		return w.compile(prog.MustCompile(p))
	}).result()
}

// RunCompiled is Run for a pre-flattened trace: c carries its
// fingerprint, so the cache is keyed without re-hashing the program
// structure on every call.
func (w *Workstation) RunCompiled(c *prog.Compiled, opts sx4.RunOpts) sx4.Result {
	return w.progs.LoadOrStore(c.Fingerprint, func() *wsTiming { return w.compile(c) }).result()
}

// wsTiming is a program compiled against the workstation model: the
// model ignores RunOpts, so the whole result — per-phase clocks
// included — is a program-level invariant computed once per
// fingerprint.
type wsTiming struct {
	name    string
	clocks  float64
	seconds float64
	flops   int64
	words   int64
	phases  []sx4.PhaseTime
}

// result materializes a Result from the compiled timing. Phases are
// copied so callers can alias the returned slice freely.
func (t *wsTiming) result() sx4.Result {
	r := sx4.Result{
		Program: t.name, Procs: 1,
		Clocks: t.clocks, Seconds: t.seconds,
		Flops: t.flops, Words: t.words,
	}
	if len(t.phases) > 0 {
		r.Phases = append([]sx4.PhaseTime(nil), t.phases...)
	}
	return r
}

// compile evaluates the flattened trace once, mirroring Interpret
// operation for operation so compiled results are bit-identical.
func (w *Workstation) compile(c *prog.Compiled) *wsTiming {
	t := &wsTiming{name: c.Name}
	if len(c.Phases) > 0 {
		t.phases = make([]sx4.PhaseTime, 0, len(c.Phases))
	}
	for i := range c.Phases {
		ph := &c.Phases[i]
		var phClocks float64
		for _, l := range c.PhaseLoops(*ph) {
			phClocks += float64(l.Trips) * w.tripClocks(c.Body(l))
			t.words += l.Words
		}
		phClocks += ph.SerialClocks
		t.phases = append(t.phases, sx4.PhaseTime{Name: ph.Name, Clocks: phClocks, Flops: ph.Flops})
		t.clocks += phClocks
		t.flops += ph.Flops
	}
	t.seconds = t.clocks * w.params.ClockNS * 1e-9
	return t
}

// Interpret evaluates the model by walking the source trace op by op,
// bypassing the compiled-trace cache. It is the differential oracle
// the compiled route is checked against: production code never calls
// it. opts.Procs is ignored, as in Run.
func (w *Workstation) Interpret(p prog.Program, opts sx4.RunOpts) sx4.Result {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	res := sx4.Result{Program: p.Name, Procs: 1}
	if len(p.Phases) > 0 {
		res.Phases = make([]sx4.PhaseTime, 0, len(p.Phases))
	}
	for _, ph := range p.Phases {
		var phClocks float64
		for _, l := range ph.Loops {
			if l.Trips == 0 {
				continue
			}
			phClocks += float64(l.Trips) * w.tripClocks(l.Body)
			res.Words += l.Words()
		}
		phClocks += ph.SerialClocks
		pt := sx4.PhaseTime{Name: ph.Name, Clocks: phClocks, Flops: ph.Flops()}
		res.Phases = append(res.Phases, pt)
		res.Clocks += phClocks
		res.Flops += ph.Flops()
	}
	res.Seconds = res.Clocks * w.params.ClockNS * 1e-9
	return res
}

// tripClocks costs one loop-body trip on the scalar machine.
func (w *Workstation) tripClocks(body []prog.Op) float64 {
	// Working set: bytes one trip touches; if the trip's arrays fit in
	// the data cache they are served at cache speed on repeated passes
	// (the KTRIES best-of-k rule measures the warm case).
	var tripWords int64
	for _, op := range body {
		tripWords += op.Words()
	}
	inCache := float64(tripWords)*8 <= float64(w.params.CacheKB)*1024

	var clocks float64
	for _, op := range body {
		vl := float64(op.VL)
		switch op.Class {
		case prog.VAdd, prog.VMul, prog.VDiv:
			weight := 1.0
			if op.FlopsPerElem > 1 {
				weight = float64(op.FlopsPerElem)
			}
			cost := weight * vl / w.params.FlopsPerClock
			if op.Class == prog.VDiv {
				cost *= 8 // scalar divides are long-latency
			}
			clocks += cost
		case prog.VLogical:
			clocks += vl / w.params.IssuePerClock
		case prog.VLoad, prog.VStore:
			if inCache {
				clocks += vl / w.params.CacheWordsPerClock
			} else {
				clocks += vl / w.params.MemWordsPerClock
			}
		case prog.VGather, prog.VScatter:
			if inCache {
				clocks += vl / w.params.CacheWordsPerClock
			} else {
				clocks += vl * w.params.GatherPenalty / w.params.MemWordsPerClock
			}
		case prog.VIntrinsic:
			clocks += vl * w.params.IntrinsicClocks
		case prog.Scalar:
			clocks += float64(op.Count) / w.params.IssuePerClock
		}
	}
	// Loop control overhead.
	return clocks + 4/w.params.IssuePerClock
}

// PeakMFLOPS returns the workstation's nominal peak rate.
func (w *Workstation) PeakMFLOPS() float64 {
	return w.params.FlopsPerClock * 1e3 / w.params.ClockNS
}

// String describes the workstation.
func (w *Workstation) String() string {
	return fmt.Sprintf("%s (%.0f MHz, %.0f MFLOPS peak)",
		w.params.ModelName, 1e3/w.params.ClockNS, math.Round(w.PeakMFLOPS()))
}
