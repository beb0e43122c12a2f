// Package target is the machine-agnostic execution layer of the
// benchmark system: the leaf package every higher layer — the SX-4
// model, the Table 1 comparators, the experiment engine, the NCAR
// runners, the verification subsystem and the CLIs — speaks instead of
// a concrete machine type.
//
// It provides four things:
//
//   - the Target interface: a modeled machine that executes operation
//     traces and exposes its scalar profile and specification sheet;
//   - the run-result vocabulary (RunOpts, PhaseTime, Result), hoisted
//     out of the SX-4 model so that a Target implementation need not
//     depend on package sx4 at all;
//   - a name-keyed machine registry (Register/Lookup/All), so runners
//     and CLIs select backends by name ("-machine ymp") without
//     constructing concrete machine types themselves;
//   - the repo's cache containers: FPCache, keyed by 64-bit
//     fingerprint, which holds every machine's compiled traces and
//     reports the one CacheStats type, and TraceCache, which holds
//     compiled traces keyed by their shape parameters.
//
// The package depends only on sx4/prog (the trace vocabulary), fault
// (the degradation vocabulary) and the standard library; the concrete
// machines depend on it, never the other way around.
package target

import (
	"sx4bench/internal/fault"
	"sx4bench/internal/sx4/prog"
)

// RunOpts controls one simulated execution.
type RunOpts struct {
	// Procs is the number of CPUs assigned to the program (within one
	// node). Zero means 1.
	Procs int
	// ActiveCPUs is the total number of busy CPUs on the node during
	// the run, including this program's. It exceeds Procs when other
	// jobs share the node (the ensemble and PRODLOAD tests). Zero
	// means Procs.
	ActiveCPUs int
}

// PhaseTime reports the simulated cost of one program phase.
type PhaseTime struct {
	Name     string
	Clocks   float64
	Flops    int64
	Words    int64
	Serial   bool
	MemBound bool
}

// Result is the outcome of a simulated run.
type Result struct {
	Program string
	Procs   int
	Clocks  float64
	Seconds float64
	Flops   int64
	Words   int64
	Phases  []PhaseTime
}

// MFLOPS returns the achieved rate in millions of (Y-MP-equivalent)
// floating-point operations per second.
func (r Result) MFLOPS() float64 {
	if r.Seconds == 0 {
		return 0
	}
	return float64(r.Flops) / r.Seconds / 1e6
}

// GFLOPS returns the achieved rate in GFLOPS.
func (r Result) GFLOPS() float64 { return r.MFLOPS() / 1e3 }

// PortMBps returns the memory-port traffic rate in MB/s.
func (r Result) PortMBps() float64 {
	if r.Seconds == 0 {
		return 0
	}
	return float64(r.Words*8) / r.Seconds / 1e6
}

// ScalarProfile describes a machine's scalar processing path, the one
// HINT exercises: issue width, cache, and scalar memory latency.
type ScalarProfile struct {
	ClockNS       float64
	IssuePerClock float64
	// HasCache reports whether scalar loads hit a data cache; the
	// vector Crays have none and pay main-memory latency per load.
	HasCache           bool
	CacheWordsPerClock float64
	MemClocksPerWord   float64
}

// Spec is a target's specification sheet: the machine facts the
// benchmark runners need beyond trace execution.
type Spec struct {
	// CPUs is the number of processors per node; Nodes the node count.
	CPUs  int
	Nodes int
	// ClockNS is the machine cycle time in nanoseconds.
	ClockNS float64
	// PeakMFLOPSPerCPU is the nominal single-processor peak rate.
	PeakMFLOPSPerCPU float64
	// DiskBytesPerSec is the attached disk subsystem's sustained rate;
	// zero when the model carries no I/O subsystem (the comparison
	// machines were benchmarked compute-only).
	DiskBytesPerSec float64

	// The remaining fields are the specification-sheet facts of the
	// paper's Table 2. They are zero for models whose spec sheet the
	// paper never prints (the Table 1 comparators).

	// VectorPipes is the number of parallel pipes per vector
	// functional unit; zero for scalar machines.
	VectorPipes int
	// PortWordsPerClock is the per-CPU memory-port width in 64-bit
	// words per clock.
	PortWordsPerClock int
	// MainMemoryGB and XMUGB are the main and extended memory
	// capacities.
	MainMemoryGB float64
	XMUGB        float64
	// DiskCapacityGB is the attached disk capacity.
	DiskCapacityGB float64
	// PowerKVA is the chassis power requirement.
	PowerKVA float64
}

// Seconds converts a clock count to seconds at the machine's cycle
// time.
func (s Spec) Seconds(clocks float64) float64 { return clocks * s.ClockNS * 1e-9 }

// Target is a modeled machine: it executes operation traces and
// exposes its scalar profile and specification. Implementations must
// be pure — Run is a function of (program, opts) and the target's
// configuration only — and safe for concurrent Run calls. A returned
// Result is the caller's own: it never aliases an engine cache.
type Target interface {
	// Name returns the model designation, e.g. "SX-4/32" or "CRI Y-MP".
	Name() string
	// Run simulates the program.
	Run(p prog.Program, opts RunOpts) Result
	// RunCompiled is Run for a pre-flattened trace: it reads the
	// fingerprint the compiler stamped on c instead of re-hashing the
	// program, so a driver that compiles each distinct trace once pays
	// the per-op walk once too. Results are bit-identical to Run on
	// the source program (Conformance pins this); the two entry points
	// share one compiled-trace cache.
	RunCompiled(c *prog.Compiled, opts RunOpts) Result
	// Scalar returns the machine's scalar-path description (the HINT
	// profile).
	Scalar() ScalarProfile
	// Spec returns the machine's specification sheet.
	Spec() Spec
	// Fingerprint hashes the target's complete configuration: the key
	// component of every configuration-keyed cache above the model
	// (sx4d's responses, the fleet scenario memo, prodload's results),
	// so a result can never be served across configurations (or
	// backends).
	Fingerprint() uint64
	// CacheStats returns the counters of the target's compiled-trace
	// cache: hits are runs whose trace was already lowered for this
	// machine, misses are per-machine compiles, entries the compiled
	// traces held. The CLIs' -cachestats output and the daemon's
	// /v1/stats read them.
	CacheStats() CacheStats
	// Clone returns a fresh target with the same configuration and a
	// cold compiled-trace cache. Clones must be run-for-run identical
	// to the original (Conformance pins this).
	Clone() Target
	// Degraded returns a fresh target with the components a fault
	// Degradation names configured out. Its own fingerprint keeps
	// healthy results from being served for it, it is never faster
	// than the original on any trace, and a degradation that leaves no
	// surviving CPU is an error wrapping ErrMachineDown.
	Degraded(d fault.Degradation) (Target, error)
}
