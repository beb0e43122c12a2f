package ncar

import (
	"context"
	"fmt"
	"sync"

	"sx4bench/internal/ccm2"
	"sx4bench/internal/core/sched"
	"sx4bench/internal/fftpack"
	"sx4bench/internal/iobench"
	"sx4bench/internal/kernels"
	"sx4bench/internal/mom"
	"sx4bench/internal/pop"
	"sx4bench/internal/prodload"
	"sx4bench/internal/sx4/iop"
	"sx4bench/internal/sx4/prog"
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
	// member's repetition convention: the duration the resilient runner
	// schedules with, from the same model run as Metrics.
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
// The evaluation is deterministic: one model run, from which both the
// attempt duration and the headline rates derive, and no KTRIES
// jitter, so repeated calls are byte-identical once rendered.
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
	return evaluate(m, b, cpus), nil
}

// The memory kernels' suite numbers are the largest-N point of each
// sweep (one long stream: the bandwidth-limited regime).
var (
	copyMax  = last(kernels.CopySweep(1))
	iaMax    = last(kernels.IASweep(1))
	xposeMax = last(kernels.XposeSweep(1))
)

// evaluate measures one suite member on m: headline's single model
// run, packaged as the member's Measurement (Metrics holds the headline
// rate, or is nil when the member reports none on m). cpus is already
// resolved (> 0).
func evaluate(m target.Target, b Benchmark, cpus int) Measurement {
	seconds, unit, rate := headline(m, b, cpus)
	out := Measurement{Benchmark: b.Name, KTries: b.KTries, Seconds: seconds}
	if unit != "" {
		out.Metrics = map[string]float64{unit: rate}
	}
	return out
}

// headline runs one suite member's model once on m and derives both of
// the member's numbers from that run: the duration of one attempt under
// the member's repetition convention, and the headline rate in unit
// (unit is "" for an I/O member on a machine without a modeled disk
// subsystem). Correctness and I/O members run fixed nominal durations
// (their cost does not depend on the compute model).
func headline(m target.Target, b Benchmark, cpus int) (seconds float64, unit string, rate float64) {
	opts1 := target.RunOpts{Procs: 1}
	stream := func(c *prog.Compiled, payload int64) (float64, string, float64) {
		r := m.RunCompiled(c, opts1)
		return 20 * r.Seconds, "mbps", float64(payload) / r.Seconds / 1e6
	}
	fft := func(c *prog.Compiled, n, mm int) (float64, string, float64) {
		r := m.RunCompiled(c, opts1)
		return 5 * r.Seconds, "mflops", fftpack.NominalMFLOPS(n, mm, r.Seconds)
	}
	switch b.Name {
	case "PARANOIA", "ELEFUNT":
		if RunCorrectness().Pass {
			return 1, "category_pass", 1
		}
		return 1, "category_pass", 0
	case "COPY":
		return stream(copyTrace(copyMax), copyMax.PayloadBytes())
	case "IA":
		return stream(iaTrace(iaMax), iaMax.PayloadBytes())
	case "XPOSE":
		return stream(xposeTrace(xposeMax), xposeMax.PayloadBytes())
	case "RFFT":
		const n = 1024
		mm := fftpack.RFFTInstances(n)
		return fft(rfftTrace(n, mm), n, mm)
	case "VFFT":
		const n, mm = 256, 500
		return fft(vfftTrace(n, mm), n, mm)
	case "RADABS":
		// Nominal RADABS work at the machine's achieved rate.
		mf := RADABSMFlops(m)
		return 10_000 / mf, "mflops", mf
	case "IO", "HIPPI", "NETWORK":
		if m.Spec().DiskBytesPerSec <= 0 {
			return 30, "", 0
		}
		disk, hippi, netMax := ioHeadlines()
		switch b.Name {
		case "IO":
			return 30, "mbps", disk
		case "HIPPI":
			return 30, "mbps", hippi
		}
		return 30, "mbps", netMax
	case "PRODLOAD":
		r := prodload.Run(m)
		return r.TotalSeconds, "minutes", r.TotalMinutes()
	case "CCM2":
		// One simulated T42 day.
		t42, _ := ccm2.ResolutionByName("T42L18")
		step := ccm2.StepSeconds(m, t42, cpus, cpus)
		return float64(t42.StepsPerDay()) * step, "gflops", float64(ccm2.StepFlops(t42)) / step / 1e9
	case "MOM":
		mf := mom.SustainedMFLOPS(m)
		return 15_000 / mf, "mflops", mf
	case "POP":
		r := m.RunCompiled(pop.CompiledStepTrace(pop.TwoDegree), opts1)
		return 100 * r.Seconds, "mflops", r.MFLOPS()
	}
	return 1, "", 0
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

// MeasureResilient is Measure under a fault schedule: the retry loop of
// RunResilient, returning the measurement of the attempt that survived
// (the same model run that timed the attempt) instead of rendered text.
// ctx is host-side only, like Measure's: the resilient retry loop runs
// on the simulated clock and is not interruptible mid-member.
func MeasureResilient(ctx context.Context, m target.Target, name string, cpus int, opts ResilientOpts) (ResilientMeasurement, error) {
	if err := ctx.Err(); err != nil {
		return ResilientMeasurement{}, abandoned(ctx, name)
	}
	_, res, err := runAttempts(m, name, cpus, opts)
	return res, err
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
