package fleet

import (
	"slices"
	"testing"

	"sx4bench/internal/core"
)

// TestWorkspaceMatchesFreshCluster drives one workspace through
// scenarios of fleets of different sizes, degraded ones included, and
// checks each against a fresh NewCluster(...).Run on a fresh schedule:
// the same result, the same per-job latencies, and node by node the
// same clock and job table.
func TestWorkspaceMatchesFreshCluster(t *testing.T) {
	var configs []Config
	for _, spec := range []string{"sx4-32x2,c90", "j90", "sx4-32,ymp,j90", "c90x2", "sx4-32x3,c90,ymp"} {
		nodes, err := ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		configs = append(configs, Config{Nodes: nodes, Mixes: CanonicalMixes(), Scenarios: 1}.withDefaults())
	}
	ws := new(workspace)
	degraded := 0
	for i := 0; i < 30; i++ {
		cfg := configs[i%len(configs)]
		sc := cfg.ScenarioAt(i)
		if sc.Down >= 0 {
			degraded++
		}
		got := cfg.simulate(sc, ws)

		specs := cfg.Nodes
		if sc.Down >= 0 {
			specs = slices.Delete(slices.Clone(specs), sc.Down, sc.Down+1)
		}
		fresh := NewCluster(specs, sc.FaultSeed, WeekSeconds, DefaultFaultEventsPerNode)
		res := fresh.Run(cfg.Mixes[sc.Mix].Arrivals(sc.ArrivalSeed, WeekSeconds))
		ps := core.Percentiles(res.Latencies, 50, 95, 99)
		want := ScenarioResult{
			Mix: sc.Mix, Degraded: sc.Down >= 0, Jobs: res.Jobs, Finished: res.Finished,
			P50: ps[0], P95: ps[1], P99: ps[2], Makespan: res.Makespan,
			Recovered: res.Recovered, Failed: res.Failed, Lost: res.Lost,
		}
		if got != want {
			t.Fatalf("scenario %d: workspace result %+v, fresh cluster %+v", i, got, want)
		}
		if !slices.Equal(ws.cluster.lat, res.Latencies) {
			t.Fatalf("scenario %d: workspace latencies differ from a fresh cluster's", i)
		}
		if len(ws.cluster.Nodes) != len(fresh.Nodes) {
			t.Fatalf("scenario %d: workspace runs %d nodes, fresh cluster %d", i, len(ws.cluster.Nodes), len(fresh.Nodes))
		}
		for k, n := range ws.cluster.Nodes {
			f := fresh.Nodes[k]
			if n.Spec != f.Spec || n.Sys.Clock != f.Sys.Clock || n.Sys.NumJobs() != f.Sys.NumJobs() {
				t.Fatalf("scenario %d node %d: clock %v with %d jobs, fresh %v with %d",
					i, k, n.Sys.Clock, n.Sys.NumJobs(), f.Sys.Clock, f.Sys.NumJobs())
			}
			for id := 1; id <= f.Sys.NumJobs(); id++ {
				a, _ := n.Sys.Job(id)
				b, _ := f.Sys.Job(id)
				qa, _ := n.Sys.QCat(id)
				qb, _ := f.Sys.QCat(id)
				if a != b || qa != qb {
					t.Fatalf("scenario %d node %d job %d: %+v %q, fresh %+v %q", i, k, id, a, qa, b, qb)
				}
			}
		}
	}
	if degraded == 0 {
		t.Fatal("no degraded scenario exercised")
	}
}
