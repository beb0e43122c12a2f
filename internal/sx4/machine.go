package sx4

import (
	"fmt"
	"hash/fnv"
	"math"

	"sx4bench/internal/sx4/membank"
	"sx4bench/internal/sx4/prog"
	"sx4bench/internal/target"
)

// DefaultIntrinsicClocks gives the sustained cost, in clocks per
// element, of the SUPER-UX vectorized math library functions on the
// SX-4. Library calls are dependent polynomial chains with range
// reduction, table lookups and masking, so — unlike simple vector
// arithmetic — they do not hide under concurrent pipe sets; the model
// charges them as serial time per element. The values are calibration
// constants chosen so that ELEFUNT rates land at realistic tens of
// millions of calls per second and RADABS lands near the paper's
// 865.9 Y-MP-equivalent MFLOPS.
var DefaultIntrinsicClocks = [prog.NumIntrinsics]float64{
	prog.Exp:  1.6,
	prog.Log:  1.7,
	prog.Pow:  3.8,
	prog.Sin:  1.5,
	prog.Cos:  1.5,
	prog.Sqrt: 0.75,
}

// divElemsPerClock returns the sustained element rate of the divide
// pipe set: a full-precision divide iterates, sustaining a quarter of
// the add/multiply rate (2 results per clock on the SX-4's 8 pipes).
func divElemsPerClock(pipes int) float64 { return float64(pipes) / 4.0 }

// The run vocabulary lives in the machine-agnostic package target (the
// leaf every execution layer shares); the aliases keep the historical
// sx4.RunOpts / sx4.Result spellings working unchanged.

// RunOpts controls one simulated execution.
type RunOpts = target.RunOpts

// PhaseTime reports the simulated cost of one program phase.
type PhaseTime = target.PhaseTime

// Result is the outcome of a simulated run.
type Result = target.Result

// Machine executes operation traces against an SX-4 configuration. It
// is safe for concurrent use: the configuration is fixed by New, runs
// are pure functions of it, and the compiled-trace cache is
// concurrency-safe.
type Machine struct {
	cfg       Config
	mem       membank.System
	intrinsic [prog.NumIntrinsics]float64 // clocks per element

	fingerprint uint64 // configFingerprint(cfg)
	// progs caches compiled trace timings (see compiled.go) keyed by
	// program fingerprint.
	progs *target.FPCache[*compiledProgram]
}

// Machine implements target.Target.
var _ target.Target = (*Machine)(nil)

// New returns a machine for the given configuration. It panics on an
// invalid configuration.
func New(cfg Config) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m := &Machine{
		cfg: cfg,
		mem: membank.System{
			Banks:          cfg.MemoryBanks,
			BusyClocks:     cfg.BankBusyClocks,
			Pipes:          cfg.VectorPipes,
			StridedPenalty: cfg.StridedPenalty,
		},
		intrinsic:   DefaultIntrinsicClocks,
		fingerprint: configFingerprint(cfg),
		progs:       &target.FPCache[*compiledProgram]{},
	}
	if cfg.IntrinsicScale > 0 {
		for i := range m.intrinsic {
			m.intrinsic[i] *= cfg.IntrinsicScale
		}
	}
	return m
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// Name returns the configuration name.
func (m *Machine) Name() string { return m.cfg.Name }

// Scalar returns the SX-4 scalar-path description: a superscalar unit
// with a 4-way set-associative data cache in front of the banked main
// memory (unlike the Crays, which have none).
func (m *Machine) Scalar() target.ScalarProfile {
	return target.ScalarProfile{
		ClockNS:            m.cfg.ClockNS,
		IssuePerClock:      float64(m.cfg.ScalarIssuePerClock),
		HasCache:           true,
		CacheWordsPerClock: 1,
		MemClocksPerWord:   8,
	}
}

// Spec returns the machine's specification sheet.
func (m *Machine) Spec() target.Spec {
	return target.Spec{
		CPUs:              m.cfg.CPUs,
		Nodes:             m.cfg.Nodes,
		ClockNS:           m.cfg.ClockNS,
		PeakMFLOPSPerCPU:  m.cfg.PeakFlopsPerCPU() / 1e6,
		DiskBytesPerSec:   m.cfg.DiskBytesPerSec,
		VectorPipes:       m.cfg.VectorPipes,
		PortWordsPerClock: m.cfg.PortWordsPerClock,
		MainMemoryGB:      m.cfg.MainMemoryGB,
		XMUGB:             m.cfg.XMUGB,
		DiskCapacityGB:    m.cfg.DiskCapacityGB,
		PowerKVA:          m.cfg.PowerKVA,
	}
}

// Fingerprint returns the configuration fingerprint.
func (m *Machine) Fingerprint() uint64 { return m.fingerprint }

// configFingerprint hashes every field of the configuration, so a
// result cached under it can never be served for a machine built with
// any other calibration: nothing but the config, the trace and the
// RunOpts enters a simulation.
func configFingerprint(cfg Config) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", cfg)
	return h.Sum64()
}

// CacheStats returns the machine's compiled-trace cache counters.
func (m *Machine) CacheStats() target.CacheStats { return m.progs.Stats() }

// Clone returns a fresh machine with the same configuration and a cold
// compiled-trace cache.
func (m *Machine) Clone() target.Target { return New(m.cfg) }

// tripCost is the resource usage of one trip of a loop body.
type tripCost struct {
	issue, add, mul, div, logical float64
	load, store                   float64 // pipe-busy clocks
	portWords                     float64 // words through the CPU port
	startup                       float64 // deepest one-time startup
	scalar                        float64
	intr                          float64 // serial intrinsic-library time
	memBusy                       float64 // load+store pipe busy (for contention scaling)
}

func (m *Machine) opCost(op prog.Op, c *tripCost) {
	cfg := &m.cfg
	pipes := float64(cfg.VectorPipes)
	strips := 1
	if op.Class != prog.Scalar && op.VL > cfg.VectorRegElems {
		strips = (op.VL + cfg.VectorRegElems - 1) / cfg.VectorRegElems
	}
	c.issue += 2 * float64(strips)
	vl := float64(op.VL)

	// Arithmetic ops with FlopsPerElem > 1 stand for that many pipe
	// operations per element, occupying the pipe set accordingly.
	weight := 1.0
	if op.FlopsPerElem > 1 {
		weight = float64(op.FlopsPerElem)
	}

	startup := float64(cfg.VectorStartupClocks)
	switch op.Class {
	case prog.VAdd:
		c.add += weight * vl / pipes
	case prog.VMul:
		c.mul += weight * vl / pipes
	case prog.VDiv:
		c.div += weight * vl / divElemsPerClock(cfg.VectorPipes)
	case prog.VLogical:
		c.logical += vl / pipes
	case prog.VLoad:
		f := m.mem.StrideFactor(op.Stride)
		c.load += vl * f / pipes
		c.portWords += vl
		startup = float64(cfg.MemStartupClocks)
	case prog.VStore:
		f := m.mem.StrideFactor(op.Stride)
		c.store += vl * f / pipes
		c.portWords += vl
		startup = float64(cfg.MemStartupClocks)
	case prog.VGather:
		f := m.mem.GatherFactor(cfg.GatherWordsPerClock, op.Span)
		c.load += vl * f / pipes
		c.portWords += 2 * vl // data + index vector
		startup = float64(cfg.MemStartupClocks)
	case prog.VScatter:
		f := m.mem.GatherFactor(cfg.GatherWordsPerClock, op.Span)
		c.store += vl * f / pipes
		c.portWords += 2 * vl
		startup = float64(cfg.MemStartupClocks)
	case prog.VIntrinsic:
		c.intr += vl * m.intrinsic[op.Intr]
		startup = float64(cfg.VectorStartupClocks) * 2 // library call chain
	case prog.Scalar:
		c.scalar += float64(op.Count) / float64(cfg.ScalarIssuePerClock)
		startup = 0
	}
	if s := startup * float64(strips) / math.Max(1, float64(strips)); s > c.startup {
		// startup is paid once per trip on the deepest chain; strip
		// boundaries refill but overlap with draining pipes.
		c.startup = s
	}
}

// tripClocks returns the clock count of one loop-body trip and the
// memory-pipe busy time within it.
func (m *Machine) tripClocks(body []prog.Op) tripCost {
	var c tripCost
	for _, op := range body {
		m.opCost(op, &c)
	}
	c.memBusy = math.Max(c.load, c.store)
	port := c.portWords / float64(m.cfg.PortWordsPerClock)
	if port > c.memBusy {
		c.memBusy = port
	}
	return c
}

func (c tripCost) clocks(loopOverhead float64, memFactor float64) float64 {
	mem := c.memBusy * memFactor
	t := c.issue
	for _, v := range []float64{c.add, c.mul, c.div, c.logical, mem, c.scalar} {
		if v > t {
			t = v
		}
	}
	// Intrinsic library time is a dependent chain: it does not overlap
	// the loop's other vector work.
	return t + c.intr + c.startup + loopOverhead
}

// memBound reports whether memory is the binding cost of the trip:
// the largest overlapped resource and bigger than the serial intrinsic
// time.
func (c tripCost) memBound() bool {
	return c.memBusy >= c.add && c.memBusy >= c.mul && c.memBusy >= c.div &&
		c.memBusy >= c.issue && c.memBusy >= c.intr && c.memBusy > 0
}

// Run simulates the program on the machine. Run and RunCompiled take
// the machine's one route: the trace's compiled timing, lowered into
// the compiled-trace cache on first use, then an O(phases+loops) walk
// of it for opts.
func (m *Machine) Run(p prog.Program, opts RunOpts) Result {
	cp := m.progs.LoadOrStore(p.Fingerprint(), func() *compiledProgram {
		return m.compile(prog.MustCompile(p))
	})
	return m.runCompiled(cp, opts)
}

// RunCompiled is Run for a pre-flattened trace: c carries its
// fingerprint, so the run costs no per-op hashing at all.
func (m *Machine) RunCompiled(c *prog.Compiled, opts RunOpts) Result {
	cp := m.progs.LoadOrStore(c.Fingerprint, func() *compiledProgram { return m.compile(c) })
	return m.runCompiled(cp, opts)
}

// Interpret evaluates the machine model by walking the source trace op
// by op, bypassing the compiled-trace cache. It is the differential
// oracle the compiled route is checked against: production code never
// calls it.
func (m *Machine) Interpret(p prog.Program, opts RunOpts) Result {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	procs := opts.Procs
	if procs <= 0 {
		procs = 1
	}
	if procs > m.cfg.CPUs {
		procs = m.cfg.CPUs
	}
	active := opts.ActiveCPUs
	if active < procs {
		active = procs
	}
	if active > m.cfg.CPUs {
		active = m.cfg.CPUs
	}

	res := Result{Program: p.Name, Procs: procs}
	if len(p.Phases) > 0 {
		res.Phases = make([]PhaseTime, 0, len(p.Phases))
	}
	for _, ph := range p.Phases {
		pt := m.phaseClocks(ph, procs, active)
		res.Clocks += pt.Clocks
		res.Flops += pt.Flops
		res.Words += pt.Words
		res.Phases = append(res.Phases, pt)
	}
	res.Seconds = res.Clocks * m.cfg.ClockNS * 1e-9
	return res
}

func (m *Machine) phaseClocks(ph prog.Phase, procs, active int) PhaseTime {
	pt := PhaseTime{Name: ph.Name, Flops: ph.Flops(), Serial: !ph.Parallel}
	execProcs := 1
	execActive := active
	if ph.Parallel {
		execProcs = procs
	} else if execActive < 1 {
		execActive = 1
	}

	for _, l := range ph.Loops {
		pt.Words += l.Words()
		if l.Trips == 0 {
			continue
		}
		c := m.tripClocks(l.Body)
		base := c.clocks(m.cfg.LoopOverheadClocks, 1)

		// Node-level memory contention: aggregate demand of the
		// concurrently streaming CPUs against the banked capacity.
		perCPUWordsPerClock := 0.0
		if base > 0 {
			perCPUWordsPerClock = c.portWords / base
		}
		streams := execProcs
		if execActive > streams {
			streams = execActive
		}
		demand := perCPUWordsPerClock * float64(streams)
		factor := m.mem.ContentionFactor(demand, m.mem.CapacityWordsPerClock())
		trip := c.clocks(m.cfg.LoopOverheadClocks, factor)
		// Cross-job interference: residual bank and crossbar conflicts
		// from the *other* jobs' CPUs sharing the node slow everything
		// slightly (the ensemble-test effect, Table 6). The job's own
		// allocation (procs), busy or idle, does not interfere with
		// itself beyond the demand term above.
		if other := execActive - procs; other > 0 && m.cfg.CPUs > 1 {
			trip *= 1 + m.cfg.InterferenceFrac*float64(other)/float64(m.cfg.CPUs-1)
		}
		if c.memBound() {
			pt.MemBound = true
		}

		trips := l.Trips
		if ph.Parallel && execProcs > 1 {
			trips = (l.Trips + int64(execProcs) - 1) / int64(execProcs)
		}
		pt.Clocks += float64(trips) * trip
	}
	if ph.Barriers > 0 && procs > 1 {
		pt.Clocks += float64(ph.Barriers) *
			(m.cfg.BarrierBaseClocks + m.cfg.BarrierPerCPUClocks*float64(procs))
	}
	pt.Clocks += ph.SerialClocks
	return pt
}

// Seconds converts clocks to seconds at the machine's cycle time.
func (m *Machine) Seconds(clocks float64) float64 {
	return clocks * m.cfg.ClockNS * 1e-9
}

// String describes the machine.
func (m *Machine) String() string {
	return fmt.Sprintf("%s (%.1f ns clock, %.1f GFLOPS peak)",
		m.cfg.Name, m.cfg.ClockNS, m.cfg.PeakFlops()/1e9)
}
