package fleet

import "testing"

// TestSimulateAllocsPerJob guards a scenario's per-job path against
// formatting or bookkeeping that allocates once per job. In a warm
// workspace (one that already ran a scenario) a canonical scenario
// must stay within maxAllocsPerJob allocations per generated job: it
// measured 10–13 allocations for 181–278 jobs (the label string, each
// node's fault window, the percentile buffers and fault recovery's
// scratch), 0.04–0.07 per job. A cold workspace's figure, which adds
// building the nodes and growing every buffer, is logged beside it.
func TestSimulateAllocsPerJob(t *testing.T) {
	const maxAllocsPerJob = 0.1
	cfg := canonicalTestConfig(t, 4).withDefaults()
	for i := 0; i < cfg.Scenarios; i++ {
		sc := cfg.ScenarioAt(i)
		ws := new(workspace)
		jobs := cfg.simulate(sc, ws).Jobs
		warm := testing.AllocsPerRun(3, func() { cfg.simulate(sc, ws) })
		cold := testing.AllocsPerRun(3, func() { cfg.simulate(sc, new(workspace)) })
		perJob := warm / float64(jobs)
		t.Logf("scenario %d: %d jobs; warm %.0f allocations, %.2f per job; cold %.0f, %.2f per job",
			i, jobs, warm, perJob, cold, cold/float64(jobs))
		if perJob > maxAllocsPerJob {
			t.Errorf("scenario %d: %.2f allocations per job, want at most %v", i, perJob, maxAllocsPerJob)
		}
	}
}
