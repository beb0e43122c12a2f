package fleet

import "testing"

// TestSimulateAllocsPerJob guards a scenario's per-job path against
// formatting or bookkeeping that allocates once per job: a canonical
// scenario must stay within maxAllocsPerJob allocations per generated
// job (one *superux.Job per submission plus amortized slice growth).
func TestSimulateAllocsPerJob(t *testing.T) {
	const maxAllocsPerJob = 3
	cfg := canonicalTestConfig(t, 4).withDefaults()
	for i := 0; i < cfg.Scenarios; i++ {
		sc := cfg.ScenarioAt(i)
		jobs := cfg.simulate(sc).Jobs
		allocs := testing.AllocsPerRun(3, func() { cfg.simulate(sc) })
		perJob := allocs / float64(jobs)
		t.Logf("scenario %d: %.0f allocations, %d jobs, %.2f per job", i, allocs, jobs, perJob)
		if perJob > maxAllocsPerJob {
			t.Errorf("scenario %d: %.2f allocations per job, want at most %d", i, perJob, maxAllocsPerJob)
		}
	}
}
