package fleet

import (
	"strings"
	"sync"
	"testing"

	_ "sx4bench/internal/machine" // registry
	"sx4bench/internal/target"
)

func TestParseSpecExpandsAndOrders(t *testing.T) {
	nodes, err := ParseSpec("sx4-32x2,c90")
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 3 {
		t.Fatalf("want 3 nodes, got %d", len(nodes))
	}
	if nodes[0].Machine != "sx4-32" || nodes[1].Machine != "sx4-32" || nodes[2].Machine != "c90" {
		t.Fatalf("node order wrong: %+v", nodes)
	}
	if nodes[0] != nodes[1] {
		t.Fatalf("replicated nodes differ: %+v vs %+v", nodes[0], nodes[1])
	}
	if nodes[0].CPUs != 32 || nodes[2].CPUs != 16 {
		t.Fatalf("CPU counts wrong: sx4-32=%d c90=%d", nodes[0].CPUs, nodes[2].CPUs)
	}
	if nodes[0].PerCPUMFLOPS <= nodes[2].PerCPUMFLOPS {
		t.Fatalf("SX-4 per-CPU rate (%v) should exceed the C90's (%v)",
			nodes[0].PerCPUMFLOPS, nodes[2].PerCPUMFLOPS)
	}
	if nodes[0].Fingerprint == 0 || nodes[0].Fingerprint == nodes[2].Fingerprint {
		t.Fatal("node fingerprints missing or colliding")
	}
	// More entries than ParseSpec resolves without a heap buffer.
	many, err := ParseSpec(strings.Repeat("j90,c90x2,", 6) + "sx4-32")
	if err != nil {
		t.Fatal(err)
	}
	if len(many) != 19 || many[0].Machine != "j90" || many[2].Machine != "c90" || many[18].Machine != "sx4-32" {
		t.Fatalf("13-entry spec expanded wrong: %d nodes", len(many))
	}
}

func TestParseSpecRejections(t *testing.T) {
	for _, spec := range []string{
		"",
		"sx4-32,,c90",
		"nosuchmachine",
		"sx4-32x0",
		"sx4-32x100000",
		"c90x65",
		strings.Repeat("c90x8,", 9) + "c90", // 73 nodes over ten entries
	} {
		if _, err := ParseSpec(spec); err == nil {
			t.Errorf("ParseSpec(%q) accepted", spec)
		}
	}
	// Whitespace and case are forgiven the way the registry forgives
	// them.
	if _, err := ParseSpec(" SX4-32 , c90 "); err != nil {
		t.Errorf("ParseSpec with spaces rejected: %v", err)
	}
}

// TestParseSpecResolvesOnce pins the shared-instance route: concurrent
// parses are safe, rejected specs fail, a warm parse builds no machine
// (15 allocations when every parse looked its names up) and sizes its
// node list once (4 allocations when it grew by append), and every
// node equals the spec a fresh registry lookup yields.
func TestParseSpecResolvesOnce(t *testing.T) {
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := ParseSpec("sx4-32x2,c90"); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for _, spec := range []string{"nosuchmachine", "c90,nosuchmachine", "j90x0", "j90x65", "j90xab"} {
		if _, err := ParseSpec(spec); err == nil {
			t.Errorf("ParseSpec(%q) accepted", spec)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := ParseSpec("sx4-32x2,c90"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("warm ParseSpec = %v allocations, want at most 2 (the split and the node list)", allocs)
	}
	for _, name := range target.All() {
		nodes, err := ParseSpec(strings.ToUpper(name))
		if err != nil {
			t.Fatal(err)
		}
		if want := specOf(name, target.MustLookup(name)); nodes[0] != want {
			t.Errorf("%s: shared-instance node %+v, fresh lookup %+v", name, nodes[0], want)
		}
	}
}

func canonicalTestConfig(t *testing.T, scenarios int) Config {
	t.Helper()
	nodes, err := ParseSpec("sx4-32x2,c90")
	if err != nil {
		t.Fatal(err)
	}
	return Config{Nodes: nodes, Mixes: CanonicalMixes(), Scenarios: scenarios}
}

func TestScenarioDerivationCoversTheProduct(t *testing.T) {
	cfg := canonicalTestConfig(t, 24)
	mixes := map[int]bool{}
	degradedPerMix := map[int]int{}
	seeds := map[int64]bool{}
	for i := 0; i < 24; i++ {
		sc := cfg.ScenarioAt(i)
		mixes[sc.Mix] = true
		if sc.Down >= 0 {
			degradedPerMix[sc.Mix]++
			if sc.Down >= len(cfg.Nodes) {
				t.Fatalf("scenario %d drops nonexistent node %d", i, sc.Down)
			}
		}
		if seeds[sc.FaultSeed] || seeds[sc.ArrivalSeed] || sc.FaultSeed == sc.ArrivalSeed {
			t.Fatalf("scenario %d reuses a seed", i)
		}
		seeds[sc.FaultSeed] = true
		seeds[sc.ArrivalSeed] = true
		again := cfg.ScenarioAt(i)
		if again != sc {
			t.Fatalf("ScenarioAt(%d) not deterministic", i)
		}
	}
	if len(mixes) != 3 {
		t.Fatalf("24 scenarios covered %d mixes, want 3", len(mixes))
	}
	for m := 0; m < 3; m++ {
		if degradedPerMix[m] == 0 {
			t.Errorf("mix %d never saw a degraded fleet in 24 scenarios", m)
		}
	}
}

func TestClusterRunDeterministicAndNothingLost(t *testing.T) {
	cfg := canonicalTestConfig(t, 12).withDefaults()
	shared := new(workspace)
	for i := 0; i < 12; i++ {
		sc := cfg.ScenarioAt(i)
		a, b := cfg.simulate(sc, new(workspace)), cfg.simulate(sc, shared)
		if a != b {
			t.Fatalf("scenario %d not deterministic:\n%+v\n%+v", i, a, b)
		}
		if a.Lost != 0 {
			t.Fatalf("scenario %d lost %d jobs — the no-lost-jobs invariant broke", i, a.Lost)
		}
		if a.Jobs != a.Finished+a.Failed {
			t.Fatalf("scenario %d accounting leak: %d jobs != %d finished + %d failed",
				i, a.Jobs, a.Finished, a.Failed)
		}
		if a.Jobs == 0 {
			t.Fatalf("scenario %d generated no arrivals — the mix rates are miscalibrated", i)
		}
		if a.Finished > 0 && (a.P50 <= 0 || a.P99 < a.P95 || a.P95 < a.P50) {
			t.Fatalf("scenario %d percentiles disordered: p50=%v p95=%v p99=%v", i, a.P50, a.P95, a.P99)
		}
	}
}

func TestClusterMigratesAcrossNodes(t *testing.T) {
	// Across the canonical scenarios, cross-node recovery must
	// actually fire: with six fault events per node per week, some
	// scenario checkpoints a job off a failing block onto another node.
	cfg := canonicalTestConfig(t, 16).withDefaults()
	recovered, ws := 0, new(workspace)
	for i := 0; i < 16; i++ {
		recovered += cfg.simulate(cfg.ScenarioAt(i), ws).Recovered
	}
	if recovered == 0 {
		t.Fatal("no job recovered across 16 canonical scenarios — migration or checkpoint-requeue is dead")
	}
}

func TestMonteCarloWorkerInvariance(t *testing.T) {
	cfg := canonicalTestConfig(t, 24)
	var reports []Report
	for _, workers := range []int{1, 4, 8} {
		var e Engine // fresh memo per run: every variant simulates cold
		rep, err := e.MonteCarlo(cfg, workers)
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, rep)
	}
	for i := 1; i < len(reports); i++ {
		if reports[i].Checksum != reports[0].Checksum {
			t.Fatalf("checksum differs across worker counts: %x vs %x",
				reports[i].Checksum, reports[0].Checksum)
		}
		if len(reports[i].Mixes) != len(reports[0].Mixes) {
			t.Fatal("mix summary shape differs across worker counts")
		}
		for m := range reports[i].Mixes {
			if reports[i].Mixes[m] != reports[0].Mixes[m] {
				t.Fatalf("mix %d summary differs across worker counts:\n%+v\n%+v",
					m, reports[i].Mixes[m], reports[0].Mixes[m])
			}
		}
	}
}

func TestEngineMemoServesRepeatQueries(t *testing.T) {
	cfg := canonicalTestConfig(t, 12)
	var e Engine
	first, err := e.MonteCarlo(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	afterFirst := e.Stats()
	if afterFirst.Misses == 0 || afterFirst.Hits != 0 {
		t.Fatalf("cold run stats wrong: %+v", afterFirst)
	}
	second, err := e.MonteCarlo(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	afterSecond := e.Stats()
	if afterSecond.Hits != uint64(cfg.Scenarios) {
		t.Fatalf("repeat run hit %d of %d scenarios", afterSecond.Hits, cfg.Scenarios)
	}
	if first.Checksum != second.Checksum {
		t.Fatal("memoized rerun changed the report checksum")
	}
	// A wider query over the same scenarios re-simulates only the new
	// tail.
	wider := cfg
	wider.Scenarios = 18
	if _, err := e.MonteCarlo(wider, 0); err != nil {
		t.Fatal(err)
	}
	final := e.Stats()
	if got, want := final.Misses, uint64(18); got != want {
		t.Fatalf("widened query missed %d scenarios total, want %d (12 cold + 6 new)", got, want)
	}
}

func TestConfigValidate(t *testing.T) {
	good := canonicalTestConfig(t, 4)
	for name, mutate := range map[string]func(*Config){
		"no nodes":       func(c *Config) { c.Nodes = nil },
		"no mixes":       func(c *Config) { c.Mixes = nil },
		"zero scenarios": func(c *Config) { c.Scenarios = 0 },
	} {
		bad := good
		mutate(&bad)
		var e Engine
		if _, err := e.MonteCarlo(bad, 1); err == nil {
			t.Errorf("%s accepted", name)
		} else if !strings.Contains(err.Error(), "fleet:") {
			t.Errorf("%s: error lacks package prefix: %v", name, err)
		}
	}
}
