package fleet

import (
	"testing"
	"testing/quick"

	"sx4bench/internal/fault"
	"sx4bench/internal/superux"
)

// nodeLastCompletion is a node's own makespan: the latest FinishAt over
// its completed jobs.
func nodeLastCompletion(sys *superux.System) float64 {
	last := 0.0
	for id := 1; id <= sys.NumJobs(); id++ {
		if j, _ := sys.Job(id); j.State == superux.Done && j.FinishAt > last {
			last = j.FinishAt
		}
	}
	return last
}

// TestQuickFleetMakespanBounds is the satellite quickcheck property:
// the fleet's makespan is the latest completion anywhere in the
// cluster, so it is never shorter than any single node's own makespan —
// in particular the healthiest node's. The same walk pins the
// no-lost-jobs invariant and the accounting identity on arbitrary
// seeded scenarios.
func TestQuickFleetMakespanBounds(t *testing.T) {
	base, err := ParseSpec("sx4-32,c90,j90")
	if err != nil {
		t.Fatal(err)
	}
	mixes := CanonicalMixes()
	f := func(seed int64) bool {
		r := newStream(seed)
		n := 2 + int(r.Uniform()*2) // 2 or 3 nodes
		specs := base[:n]
		events := int(r.Uniform() * 5) // 0..4 fault events per node
		horizon := DaySeconds
		cluster := NewCluster(specs, fault.NodeSeed(seed, 0), horizon, events)
		mix := mixes[int(r.Uniform()*float64(len(mixes)))]
		res := cluster.Run(mix.Arrivals(fault.NodeSeed(seed, 1), horizon))

		if res.Lost != 0 {
			t.Logf("seed %d: %d jobs lost", seed, res.Lost)
			return false
		}
		if res.Jobs != res.Finished+res.Failed {
			t.Logf("seed %d: %d jobs != %d finished + %d failed", seed, res.Jobs, res.Finished, res.Failed)
			return false
		}
		if len(res.Latencies) != res.Finished {
			t.Logf("seed %d: %d latencies for %d finished jobs", seed, len(res.Latencies), res.Finished)
			return false
		}
		global := 0.0
		for _, node := range cluster.Nodes {
			if last := nodeLastCompletion(node.Sys); last > global {
				global = last
			}
		}
		if res.Makespan != global {
			t.Logf("seed %d: makespan %v != latest completion %v", seed, res.Makespan, global)
			return false
		}
		for i, node := range cluster.Nodes {
			if last := nodeLastCompletion(node.Sys); res.Makespan < last {
				t.Logf("seed %d: fleet makespan %v beats node %d's own %v", seed, res.Makespan, i, last)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
