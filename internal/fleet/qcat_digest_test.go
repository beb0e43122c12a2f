package fleet

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"strings"
	"testing"
)

// historyKinds are the qcat line kinds the digests count, so a pin
// also shows that its histories really cover the fault paths.
var historyKinds = []string{"checkpointed", "moved", "migrated", "failed at"}

// jobHistoryDigest folds every node-level job history of the first
// scenarios of spec's canonical Monte Carlo — each job's qcat text,
// state, start and finish times and restart count, walked in node
// order and ascending job ID — into one FNV-1a digest. It returns the
// digest, the node-level job count, the count of each history kind and
// the fleet-level failures (arrivals no node could hold, summed over
// the scenarios' Result.Failed).
func jobHistoryDigest(t *testing.T, spec string, scenarios int) (uint64, int, map[string]int, int) {
	t.Helper()
	nodes, err := ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Nodes: nodes, Mixes: CanonicalMixes(), Scenarios: scenarios}.withDefaults()
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	jobs, failed := 0, 0
	lines := map[string]int{}
	for i := 0; i < scenarios; i++ {
		sc := cfg.ScenarioAt(i)
		specs := cfg.Nodes
		if sc.Down >= 0 {
			specs = append(append([]NodeSpec(nil), specs[:sc.Down]...), specs[sc.Down+1:]...)
		}
		cluster := NewCluster(specs, sc.FaultSeed, WeekSeconds, DefaultFaultEventsPerNode)
		failed += cluster.Run(cfg.Mixes[sc.Mix].Arrivals(sc.ArrivalSeed, WeekSeconds)).Failed
		for _, n := range cluster.Nodes {
			for id := 1; id <= n.Sys.NumJobs(); id++ {
				j, _ := n.Sys.Job(id)
				out, err := n.Sys.QCat(id)
				if err != nil {
					t.Fatal(err)
				}
				h.Write([]byte(out))
				word(uint64(j.State))
				word(math.Float64bits(j.StartAt))
				word(math.Float64bits(j.FinishAt))
				word(uint64(j.Restarts))
				for _, kind := range historyKinds {
					lines[kind] += strings.Count(out, ") "+kind)
				}
				jobs++
			}
		}
	}
	return h.Sum64(), jobs, lines, failed
}

// checkJobHistory compares one fleet's digest, job count, history
// line counts and fleet-level failures with their pinned values.
func checkJobHistory(t *testing.T, spec string, scenarios, wantJobs, wantFailed int, wantHash uint64, wantLines map[string]int) {
	t.Helper()
	hash, jobs, lines, failed := jobHistoryDigest(t, spec, scenarios)
	if jobs != wantJobs {
		t.Errorf("%s: node-level jobs = %d, want %d", spec, jobs, wantJobs)
	}
	if failed != wantFailed {
		t.Errorf("%s: fleet-level failed jobs = %d, want %d", spec, failed, wantFailed)
	}
	for _, kind := range historyKinds {
		if lines[kind] != wantLines[kind] {
			t.Errorf("%s: %q lines = %d, want %d", spec, kind, lines[kind], wantLines[kind])
		}
	}
	if hash != wantHash {
		t.Errorf("%s: job history digest = %#016x, want %#016x", spec, hash, wantHash)
	}
}

// TestCanonicalJobHistoryDigest pins every node-level job history of
// the first 60 canonical scenarios to one FNV-1a digest. Any change to
// the scheduler's decisions or to a single qcat byte moves it.
func TestCanonicalJobHistoryDigest(t *testing.T) {
	checkJobHistory(t, "sx4-32x2,c90", 60, 12908, 571, 0x53afe42ff3b2c05f,
		map[string]int{"checkpointed": 25, "moved": 5, "migrated": 6, "failed at": 0})
}

// TestFailureHeavyJobHistoryDigests pins the same 60-scenario history
// for the two other benchmark fleets, which fail about three times as
// many jobs fleet-wide as the canonical one. The 8-CPU ymp and j90
// split into 6- and 2-CPU blocks that cannot hold the 8-CPU t106
// class, and a c90 holds it only in its 12-CPU block, so one CPU
// failure strands the class on that node.
func TestFailureHeavyJobHistoryDigests(t *testing.T) {
	checkJobHistory(t, "sx4-32,ymp,j90", 60, 11647, 1833, 0x58239b5af74e6ae3,
		map[string]int{"checkpointed": 37, "moved": 10, "migrated": 6, "failed at": 1})
	checkJobHistory(t, "c90x2", 60, 11765, 1725, 0xf2b85f71932d59f1,
		map[string]int{"checkpointed": 38, "moved": 5, "migrated": 4, "failed at": 13})
}
