// Package prodload implements the PRODLOAD benchmark: overall system
// performance under a simulated production load. A "job" is the HIPPI
// benchmark plus three concurrent CCM2 runs (one 3-day simulation at
// T106 and two 20-day simulations at T42); a job completes when all
// components finish. Four tests are measured:
//
//	test 1: one sequence of four jobs run one after another;
//	test 2: two such sequences running concurrently;
//	test 3: four sequences running concurrently;
//	test 4: two CCM2 2-day runs at T170 executing concurrently.
//
// The measurement is the wall-clock time from the first job's start to
// the last job's completion of each test; the paper's SX-4/32 finished
// the whole benchmark in 93 minutes 28 seconds (9.2 ns clock).
//
// Sequencing runs on the superux scheduler (FIFO resource blocks, one
// per sequence); component times come from the CCM2 run model with the
// node fully active (cross-job interference included).
package prodload

import (
	"fmt"

	"sx4bench/internal/ccm2"
	"sx4bench/internal/iobench"
	"sx4bench/internal/superux"
	"sx4bench/internal/sx4/iop"
	"sx4bench/internal/target"
)

// HIPPIVolumeBytes is the data moved by the HIPPI component of a job.
const HIPPIVolumeBytes = 10 << 30

// JobTimes is the component breakdown of one PRODLOAD job.
type JobTimes struct {
	T106Seconds  float64
	T42Seconds   float64
	HIPPISeconds float64
}

// Max returns the job's completion time (components run concurrently).
func (j JobTimes) Max() float64 {
	m := j.T106Seconds
	if j.T42Seconds > m {
		m = j.T42Seconds
	}
	if j.HIPPISeconds > m {
		m = j.HIPPISeconds
	}
	return m
}

// jobComponents sizes one job inside a sequence that owns blockCPUs
// processors: the T106 run gets the large share, the two T42 runs a
// quarter each, and the HIPPI test one CPU.
func jobComponents(m target.Target, blockCPUs int) JobTimes {
	t42CPUs := blockCPUs / 4
	if t42CPUs < 1 {
		t42CPUs = 1
	}
	t106CPUs := blockCPUs - 2*t42CPUs - 1
	if t106CPUs < 1 {
		t106CPUs = 1
	}
	active := m.Spec().CPUs // the node is fully loaded during PRODLOAD

	t106, _ := ccm2.ResolutionByName("T106L18")
	t42, _ := ccm2.ResolutionByName("T42L18")
	return JobTimes{
		T106Seconds:  ccm2.SimDays(m, t106, 3, t106CPUs, active),
		T42Seconds:   ccm2.SimDays(m, t42, 20, t42CPUs, active),
		HIPPISeconds: iobench.HIPPITestSeconds(iop.New(), HIPPIVolumeBytes),
	}
}

// Result is the PRODLOAD outcome.
type Result struct {
	Test1, Test2, Test3, Test4 float64
	TotalSeconds               float64
}

// TotalMinutes returns the benchmark total in minutes.
func (r Result) TotalMinutes() float64 { return r.TotalSeconds / 60 }

// sequenceBlockCPUs is each sequence's processor allocation: an even
// split of the node, floored at one CPU so the uniprocessor
// comparators time-share.
func sequenceBlockCPUs(m target.Target, sequences int) int {
	blockCPUs := m.Spec().CPUs / sequences
	if blockCPUs < 1 {
		blockCPUs = 1
	}
	return blockCPUs
}

// runSequencedTest runs `sequences` concurrent sequences of four jobs
// on a fresh superux system — one FIFO resource block per sequence,
// every job submitted at t=0 to its sequence's block, occupying the
// whole block (serializing the sequence) for the slowest component's
// duration — and returns the makespan.
func runSequencedTest(m target.Target, sequences int) float64 {
	blockCPUs := sequenceBlockCPUs(m, sequences)
	seconds := jobComponents(m, blockCPUs).Max()
	blocks := make([]superux.ResourceBlock, sequences)
	for s := range blocks {
		blocks[s] = superux.ResourceBlock{
			Name:    fmt.Sprintf("seq%d", s),
			MaxCPUs: blockCPUs,
			MemGB:   8.0 / float64(sequences),
			Policy:  superux.FIFO,
		}
	}
	sys := superux.NewSystem(blocks...)
	for s := range blocks {
		for j := 0; j < 4; j++ {
			sys.Submit(superux.Job{
				Name:    fmt.Sprintf("seq%d-job%d", s, j),
				Block:   blocks[s].Name,
				CPUs:    blockCPUs,
				MemGB:   8.0 / float64(sequences) * 0.9,
				Seconds: seconds,
			})
		}
	}
	return sys.Advance()
}

// runTest4 models two concurrent 2-day T170 runs on half the node each.
func runTest4(m target.Target) float64 {
	t170, _ := ccm2.ResolutionByName("T170L18")
	half := m.Spec().CPUs / 2
	if half < 1 {
		half = 1
	}
	return ccm2.SimDays(m, t170, 2, half, m.Spec().CPUs)
}

// results memoizes the benchmark per machine configuration: the
// outcome is a pure function of the machine (the scheduler is
// deterministic and the component times come from the memoized CCM2
// model), and the drivers re-run it per cross-machine column, report
// section and resilient attempt.
var results target.FPCache[Result]

// Run executes the full PRODLOAD benchmark on the machine.
func Run(m target.Target) Result {
	return results.LoadOrStore(m.Fingerprint(), func() Result { return run(m) })
}

func run(m target.Target) Result {
	r := Result{
		Test1: runSequencedTest(m, 1),
		Test2: runSequencedTest(m, 2),
		Test3: runSequencedTest(m, 4),
		Test4: runTest4(m),
	}
	r.TotalSeconds = r.Test1 + r.Test2 + r.Test3 + r.Test4
	return r
}
