package ncar

import (
	"context"
	"fmt"
	"sync"

	"sx4bench/internal/ccm2"
	"sx4bench/internal/core/sched"
	"sx4bench/internal/fault"
	"sx4bench/internal/fftpack"
	"sx4bench/internal/iobench"
	"sx4bench/internal/kernels"
	"sx4bench/internal/mom"
	"sx4bench/internal/prodload"
	"sx4bench/internal/sx4/iop"
	"sx4bench/internal/target"
)

// Measurement is one suite member's structured result: the simulated
// attempt duration plus the category's headline rates, the
// machine-readable counterpart of RunBenchmark's text output. It is
// the unit the sx4d daemon serves — a pure function of (machine
// configuration, benchmark, cpus), so identical queries are exact
// cache hits.
type Measurement struct {
	// Benchmark is the suite member name; KTries its repetition
	// convention (the paper's KTRIES rule).
	Benchmark string
	KTries    int
	// Seconds is the simulated duration of one attempt under the
	// member's repetition convention (the same model AttemptSeconds the
	// resilient runner schedules with).
	Seconds float64
	// Metrics holds the member's headline rates, keyed by unit
	// ("mflops", "mbps", "gflops", "minutes", "category_pass"). I/O
	// members report rates only on machines with a modeled disk
	// subsystem; correctness members report the host category verdict.
	Metrics map[string]float64
}

// ioRates memoizes the I/O-category headline numbers: they depend only
// on the node's IOP subsystem geometry, which every disk-bearing
// configuration shares, so the sweep runs once per process.
var ioRates = struct {
	once                sync.Once
	disk, hippi, netMax float64
}{}

func ioHeadlines() (disk, hippi, netMax float64) {
	ioRates.once.Do(func() {
		sub := iop.New()
		t63, _ := ccm2.ResolutionByName("T63L18")
		ioRates.disk = iobench.RunHistoryWrite(sub.DiskArray, t63).MBps
		ioRates.hippi = last(iobench.HIPPISweep(sub, 256<<20)).AggregateMBps
		for _, n := range iobench.RunNetwork(iobench.NewFDDI(), iobench.StandardScript()) {
			if n.MBps > ioRates.netMax {
				ioRates.netMax = n.MBps
			}
		}
	})
	return ioRates.disk, ioRates.hippi, ioRates.netMax
}

// abandoned maps a dead context to the measurement-layer error shape:
// the caller's deadline or cancellation wraps through, so servers can
// classify abandoned work with errors.Is against the context sentinels.
func abandoned(ctx context.Context, name string) error {
	return fmt.Errorf("ncar: measurement %q abandoned: %w", name, context.Cause(ctx))
}

// Measure executes one suite member on the target and returns its
// structured result. cpus <= 0 means the machine's full CPU count.
// The evaluation is deterministic: a single model run per headline
// number, no KTRIES jitter, so repeated calls are byte-identical once
// rendered.
//
// ctx bounds the host-side work, not the simulated clock: a cancelled
// or expired context abandons the measurement before it starts (and,
// in the suite forms, between members), which is how the sx4d daemon
// stops paying for queries whose clients have hung up. ctx never
// shapes a result byte — a measurement either completes exactly as it
// would have, or does not happen.
func Measure(ctx context.Context, m target.Target, name string, cpus int) (Measurement, error) {
	if err := ctx.Err(); err != nil {
		return Measurement{}, abandoned(ctx, name)
	}
	if m == nil {
		return Measurement{}, fmt.Errorf("ncar: nil target for measurement %q", name)
	}
	b, err := ByName(name)
	if err != nil {
		return Measurement{}, err
	}
	if cpus <= 0 {
		cpus = m.Spec().CPUs
	}
	out := Measurement{
		Benchmark: name,
		KTries:    b.KTries,
		Seconds:   AttemptSeconds(m, name, cpus),
	}
	metric := func(unit string, v float64) {
		if out.Metrics == nil {
			out.Metrics = make(map[string]float64)
		}
		out.Metrics[unit] = v
	}
	opts1 := target.RunOpts{Procs: 1}
	switch name {
	case "PARANOIA", "ELEFUNT":
		if RunCorrectness().Pass {
			metric("category_pass", 1)
		} else {
			metric("category_pass", 0)
		}
	case "COPY":
		k := last(kernels.CopySweep(1))
		r := m.RunCompiled(copyTrace(k), opts1)
		metric("mbps", float64(k.PayloadBytes())/r.Seconds/1e6)
	case "IA":
		k := last(kernels.IASweep(1))
		r := m.RunCompiled(iaTrace(k), opts1)
		metric("mbps", float64(k.PayloadBytes())/r.Seconds/1e6)
	case "XPOSE":
		k := last(kernels.XposeSweep(1))
		r := m.RunCompiled(xposeTrace(k), opts1)
		metric("mbps", float64(k.PayloadBytes())/r.Seconds/1e6)
	case "RFFT":
		const n = 1024
		mm := fftpack.RFFTInstances(n)
		r := m.RunCompiled(rfftTrace(n, mm), opts1)
		metric("mflops", fftpack.NominalMFLOPS(n, mm, r.Seconds))
	case "VFFT":
		const n, mm = 256, 500
		r := m.RunCompiled(vfftTrace(n, mm), opts1)
		metric("mflops", fftpack.NominalMFLOPS(n, mm, r.Seconds))
	case "RADABS":
		metric("mflops", RADABSMFlops(m))
	case "IO", "HIPPI", "NETWORK":
		if m.Spec().DiskBytesPerSec > 0 {
			disk, hippi, netMax := ioHeadlines()
			switch name {
			case "IO":
				metric("mbps", disk)
			case "HIPPI":
				metric("mbps", hippi)
			case "NETWORK":
				metric("mbps", netMax)
			}
		}
	case "PRODLOAD":
		metric("minutes", prodload.Run(m).TotalMinutes())
	case "CCM2":
		t42, _ := ccm2.ResolutionByName("T42L18")
		metric("gflops", ccm2.SustainedGFLOPS(m, t42, cpus))
	case "MOM":
		metric("mflops", mom.SustainedMFLOPS(m))
	case "POP":
		metric("mflops", POPMFlops(m))
	}
	return out, nil
}

// MeasureSuite measures the named members (nil or empty = the whole
// suite, in paper order) with suite-level parallelism. workers follows
// the sched convention (0 = GOMAXPROCS, 1 = serial); the result slice
// is in input order and byte-identical for any worker count. A context
// that dies mid-suite abandons the members that have not started —
// cancellation is at member granularity, so a completed result slice
// is never partially reported.
func MeasureSuite(ctx context.Context, m target.Target, names []string, cpus, workers int) ([]Measurement, error) {
	if len(names) == 0 {
		for _, b := range Suite() {
			names = append(names, b.Name)
		}
	}
	return sched.Map(workers, len(names), func(i int) (Measurement, error) {
		return Measure(ctx, m, names[i], cpus)
	})
}

// ResilientMeasurement couples one member's structured result with the
// fault-schedule outcome of the attempt that produced it.
type ResilientMeasurement struct {
	Measurement Measurement
	// Attempts and FinishedAt mirror ResilientResult: the attempt count
	// including aborted ones and the simulated completion time.
	Attempts   int
	FinishedAt float64
	// Degraded is the machine degradation in force during the
	// successful attempt.
	Degraded fault.Degradation
}

// MeasureResilient is Measure under a fault schedule: the retry loop of
// RunResilient, with the surviving attempt's degraded machine measured
// structurally instead of rendered as text. ctx is host-side only, like
// Measure's: the resilient retry loop runs on the simulated clock and
// is not interruptible mid-member.
func MeasureResilient(ctx context.Context, m target.Target, name string, cpus int, opts ResilientOpts) (ResilientMeasurement, error) {
	if err := ctx.Err(); err != nil {
		return ResilientMeasurement{}, abandoned(ctx, name)
	}
	dm, res, err := runAttempts(m, name, cpus, opts)
	out := ResilientMeasurement{
		Attempts:   res.Attempts,
		FinishedAt: res.FinishedAt,
		Degraded:   res.Degraded,
	}
	if err != nil {
		return out, err
	}
	out.Measurement, err = Measure(ctx, dm, name, cpus)
	return out, err
}

// MeasureSuiteResilient is MeasureSuite under a fault schedule; each
// member runs on its own simulated timeline (t = 0 at its start), so
// the result slice is deterministic for any worker count.
func MeasureSuiteResilient(ctx context.Context, m target.Target, names []string, cpus, workers int, opts ResilientOpts) ([]ResilientMeasurement, error) {
	if len(names) == 0 {
		for _, b := range Suite() {
			names = append(names, b.Name)
		}
	}
	return sched.Map(workers, len(names), func(i int) (ResilientMeasurement, error) {
		return MeasureResilient(ctx, m, names[i], cpus, opts)
	})
}
