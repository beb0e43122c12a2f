package fleet

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"strings"
	"testing"
)

// TestCanonicalJobHistoryDigest pins every node-level job history of
// the first 60 canonical scenarios — each job's qcat text, state,
// start and finish times and restart count, walked in node order and
// ascending job ID — to one FNV-1a digest. Any change to the
// scheduler's decisions or to a single qcat byte moves it. The line
// counts pin that the histories really cover the fault paths.
func TestCanonicalJobHistoryDigest(t *testing.T) {
	const (
		scenarios = 60
		wantJobs  = 12908
		wantHash  = uint64(0x53afe42ff3b2c05f)
	)
	wantLines := map[string]int{"checkpointed": 25, "moved": 5, "migrated": 6, "failed at": 0}

	cfg := canonicalTestConfig(t, scenarios).withDefaults()
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	jobs := 0
	lines := map[string]int{}
	for i := 0; i < scenarios; i++ {
		sc := cfg.ScenarioAt(i)
		specs := cfg.Nodes
		if sc.Down >= 0 {
			specs = append(append([]NodeSpec(nil), specs[:sc.Down]...), specs[sc.Down+1:]...)
		}
		cluster := NewCluster(specs, sc.FaultSeed, cfg.HorizonSeconds, cfg.FaultEventsPerNode)
		cluster.Run(cfg.Mixes[sc.Mix].Arrivals(sc.ArrivalSeed, cfg.HorizonSeconds))
		for _, n := range cluster.Nodes {
			for id := 1; id <= len(n.Sys.Jobs); id++ {
				j := n.Sys.Jobs[id]
				out, err := n.Sys.QCat(id)
				if err != nil {
					t.Fatal(err)
				}
				h.Write([]byte(out))
				word(uint64(j.State))
				word(math.Float64bits(j.StartAt))
				word(math.Float64bits(j.FinishAt))
				word(uint64(j.Restarts))
				for kind := range wantLines {
					lines[kind] += strings.Count(out, ") "+kind)
				}
				jobs++
			}
		}
	}
	if jobs != wantJobs {
		t.Errorf("node-level jobs = %d, want %d", jobs, wantJobs)
	}
	for kind, want := range wantLines {
		if lines[kind] != want {
			t.Errorf("%q lines = %d, want %d", kind, lines[kind], want)
		}
	}
	if got := h.Sum64(); got != wantHash {
		t.Errorf("job history digest = %#016x, want %#016x", got, wantHash)
	}
}
