package prodload

import (
	"testing"

	"sx4bench/internal/sx4"
)

func bench() *sx4.Machine { return sx4.New(sx4.Benchmarked()) }

func TestPaperTotalAnchor(t *testing.T) {
	// Paper: the SX-4/32 completed PRODLOAD in 93 minutes 28 seconds.
	r := Run(bench())
	paper := 93*60 + 28.0
	lo, hi := 0.8*paper, 1.2*paper
	if r.TotalSeconds < lo || r.TotalSeconds > hi {
		t.Errorf("PRODLOAD total = %.0f s (%.1f min), want within [%.0f, %.0f] (paper %.0f)",
			r.TotalSeconds, r.TotalMinutes(), lo, hi, paper)
	}
}

func TestTestsOrderedByLoad(t *testing.T) {
	// More concurrent sequences mean fewer CPUs per job: test 3 takes
	// longer than test 2, which takes longer than test 1.
	r := Run(bench())
	if !(r.Test3 > r.Test2 && r.Test2 > r.Test1) {
		t.Errorf("test times not ordered: t1=%.0f t2=%.0f t3=%.0f", r.Test1, r.Test2, r.Test3)
	}
	if r.Test4 <= 0 {
		t.Errorf("test 4 = %v", r.Test4)
	}
}

func TestSharingOverheadModest(t *testing.T) {
	// Test 3 completes 16 jobs where test 1 completes 4: the machine
	// absorbs 4x the concurrent load with only a modest increase in
	// CPU-seconds per job (packing + interference overhead), the
	// "little degradation under load" the paper concludes.
	r := Run(bench())
	perJob1 := r.Test1 * 32 / 4  // CPU-seconds per job, test 1
	perJob3 := r.Test3 * 32 / 16 // CPU-seconds per job, test 3
	if perJob3 > 1.4*perJob1 {
		t.Errorf("per-job cost grew from %.0f to %.0f CPU-seconds (>40%%)", perJob1, perJob3)
	}
	if r.Test3 >= 16.0/4*r.Test1*1.5 {
		t.Errorf("t3=%.0f disproportionate to t1=%.0f", r.Test3, r.Test1)
	}
}

func TestJobComponents(t *testing.T) {
	m := bench()
	jt := jobComponents(m, sequenceBlockCPUs(m, 1))
	if jt.T106Seconds <= 0 || jt.T42Seconds <= 0 || jt.HIPPISeconds <= 0 {
		t.Fatalf("non-positive component: %+v", jt)
	}
	// With a 32-CPU block the 3-day T106 run dominates the job.
	if jt.Max() != jt.T106Seconds {
		t.Errorf("expected T106 to dominate the job: %+v", jt)
	}
	// A job is minutes, not hours.
	if jt.Max() < 60 || jt.Max() > 1800 {
		t.Errorf("job time = %.0f s, want minutes-scale", jt.Max())
	}
}

func TestSequencesScaleJobTime(t *testing.T) {
	m := bench()
	one := jobComponents(m, sequenceBlockCPUs(m, 1))
	four := jobComponents(m, sequenceBlockCPUs(m, 4))
	if four.T106Seconds <= one.T106Seconds {
		t.Error("jobs in quarter-node sequences should run slower")
	}
	// HIPPI time is CPU-allocation independent.
	if four.HIPPISeconds != one.HIPPISeconds {
		t.Error("HIPPI component should not depend on the CPU split")
	}
}

func TestSequencedMakespanIsFourJobs(t *testing.T) {
	// In each sequenced test the makespan equals 4 consecutive jobs.
	m := bench()
	jt := jobComponents(m, sequenceBlockCPUs(m, 2))
	got := runSequencedTest(m, 2)
	want := 4 * jt.Max()
	if diff := got - want; diff < -1e-6 || diff > 1e-6 {
		t.Errorf("2-sequence makespan = %v, want %v (4 serial jobs)", got, want)
	}
}
