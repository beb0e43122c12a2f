package fleet

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"sx4bench/internal/core"
	"sx4bench/internal/core/sched"
	"sx4bench/internal/fault"
	"sx4bench/internal/target"
)

// Canonical Monte Carlo parameters: a week of simulated traffic, six
// fault events per node per week, seeded with the paper's year.
const (
	WeekSeconds               = 7 * 24 * 3600.0
	DefaultSeed               = 1996
	DefaultFaultEventsPerNode = 6
	DefaultScenarios          = 100
)

// Config parameterizes a capacity Monte Carlo: a fleet, a set of
// workload mixes, and the scenario count. Scenario i is a pure
// function of (Config, i): its mix rotates through Mixes, its fault
// and arrival seeds derive from Seed by SplitMix64 stream jumps, and
// every fourth scenario runs a degraded fleet with one node removed —
// the fault-seeds × workload-mixes × degraded-fleets product the
// capacity question needs.
type Config struct {
	Nodes     []NodeSpec
	Mixes     []Mix
	Scenarios int
	// Seed is the fleet seed every scenario derives from.
	Seed int64
	// HorizonSeconds bounds arrivals and fault schedules; 0 means
	// WeekSeconds.
	HorizonSeconds float64
	// FaultEventsPerNode sizes each node's per-scenario fault plan;
	// negative means fault-free, 0 means the default.
	FaultEventsPerNode int
}

// withDefaults resolves the zero-value knobs.
func (c Config) withDefaults() Config {
	if c.HorizonSeconds == 0 {
		c.HorizonSeconds = WeekSeconds
	}
	if c.FaultEventsPerNode == 0 {
		c.FaultEventsPerNode = DefaultFaultEventsPerNode
	}
	if c.FaultEventsPerNode < 0 {
		c.FaultEventsPerNode = 0
	}
	if c.Seed == 0 {
		c.Seed = DefaultSeed
	}
	return c
}

// Validate rejects configurations the engine cannot run.
func (c Config) Validate() error {
	switch {
	case len(c.Nodes) == 0:
		return fmt.Errorf("fleet: config has no nodes")
	case len(c.Mixes) == 0:
		return fmt.Errorf("fleet: config has no workload mixes")
	case c.Scenarios <= 0:
		return fmt.Errorf("fleet: scenario count %d must be positive", c.Scenarios)
	case c.HorizonSeconds < 0 || math.IsNaN(c.HorizonSeconds) || math.IsInf(c.HorizonSeconds, 0):
		return fmt.Errorf("fleet: horizon must be finite and non-negative")
	}
	return nil
}

// Scenario is one resolved Monte Carlo draw.
type Scenario struct {
	Index int
	// Mix indexes Config.Mixes.
	Mix int
	// FaultSeed seeds the fleet's per-node fault plans; ArrivalSeed
	// the mix's arrival schedule.
	FaultSeed   int64
	ArrivalSeed int64
	// Down is the node index removed for a degraded-fleet scenario,
	// -1 for the full fleet.
	Down int
}

// ScenarioAt derives scenario i. Exported so tests and the capacity
// artifact can replay any single scenario by index.
func (c Config) ScenarioAt(i int) Scenario {
	c = c.withDefaults()
	sc := Scenario{
		Index:       i,
		Mix:         i % len(c.Mixes),
		FaultSeed:   fault.NodeSeed(c.Seed, 2*i),
		ArrivalSeed: fault.NodeSeed(c.Seed, 2*i+1),
		Down:        -1,
	}
	// Every fourth scenario plans against a degraded fleet: one node
	// gone before the week starts. 4 is coprime to the three canonical
	// mixes, so each mix sees degraded draws.
	if i%4 == 3 && len(c.Nodes) > 1 {
		sc.Down = (i / 4) % len(c.Nodes)
	}
	return sc
}

// ScenarioResult is one simulated scenario's outcome — a flat struct
// so the per-scenario memo can hold it by value.
type ScenarioResult struct {
	Mix      int
	Degraded bool
	Jobs     int
	Finished int
	// P50/P95/P99 are nearest-rank percentiles of finished-job latency
	// in seconds (core.Percentiles).
	P50, P95, P99 float64
	Makespan      float64
	Recovered     int
	Failed        int
	Lost          int
}

// simulate runs one scenario cold: build the (possibly degraded)
// fleet, derive per-node fault plans from the scenario's fault seed,
// generate the mix's arrivals, and drain the cluster.
func (c Config) simulate(sc Scenario) ScenarioResult {
	c = c.withDefaults()
	specs := c.Nodes
	if sc.Down >= 0 && sc.Down < len(specs) {
		specs = append(append([]NodeSpec(nil), specs[:sc.Down]...), specs[sc.Down+1:]...)
	}
	cluster := NewCluster(specs, sc.FaultSeed, c.HorizonSeconds, c.FaultEventsPerNode)
	arrivals := c.Mixes[sc.Mix].Arrivals(sc.ArrivalSeed, c.HorizonSeconds)
	res := cluster.Run(arrivals)
	ps := core.Percentiles(res.Latencies, 50, 95, 99)
	return ScenarioResult{
		Mix:       sc.Mix,
		Degraded:  sc.Down >= 0,
		Jobs:      res.Jobs,
		Finished:  res.Finished,
		P50:       ps[0],
		P95:       ps[1],
		P99:       ps[2],
		Makespan:  res.Makespan,
		Recovered: res.Recovered,
		Failed:    res.Failed,
		Lost:      res.Lost,
	}
}

// fingerprint content-addresses one scenario against the fleet and mix
// configuration: an FNV-1a fold of every input that can reach a result
// — node fingerprints and shapes, the mix definition, the horizon and
// the scenario seeds. Worker counts never enter.
func (c Config) fingerprint(sc Scenario) uint64 {
	c = c.withDefaults()
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	h.Write([]byte("fleet-scenario\x00"))
	for i, n := range c.Nodes {
		if i == sc.Down {
			continue
		}
		word(n.Fingerprint)
		word(uint64(n.CPUs))
		word(math.Float64bits(n.MemGB))
		word(math.Float64bits(n.PerCPUMFLOPS))
	}
	m := c.Mixes[sc.Mix]
	h.Write([]byte(m.Name))
	h.Write([]byte{0})
	word(uint64(m.Pattern))
	word(math.Float64bits(m.PerHour))
	for _, cl := range m.Classes {
		h.Write([]byte(cl.Name))
		h.Write([]byte{0})
		word(uint64(cl.CPUs))
		word(math.Float64bits(cl.MemGB))
		word(math.Float64bits(cl.WorkMFLOP))
		word(math.Float64bits(cl.Weight))
	}
	word(math.Float64bits(c.HorizonSeconds))
	word(uint64(c.FaultEventsPerNode))
	word(uint64(sc.FaultSeed))
	word(uint64(sc.ArrivalSeed))
	return h.Sum64()
}

// MixSummary aggregates one mix's scenarios. The latency columns are
// medians across scenarios of the per-scenario nearest-rank
// percentiles (core.Percentiles at both levels), so one pathological
// draw cannot swamp the column.
type MixSummary struct {
	Mix                     string
	Pattern                 string
	Scenarios, Degraded     int
	Jobs                    int64
	P50, P95, P99           float64
	MakespanP50             float64
	MakespanMax             float64
	Recovered, Failed, Lost int64
}

// Report is one Monte Carlo run's aggregate.
type Report struct {
	Scenarios int
	Jobs      int64
	Results   []ScenarioResult
	// Mixes summarizes per mix, in Config.Mixes order.
	Mixes []MixSummary
	// Checksum folds every scenario result in index order; equal
	// checksums across worker counts are the determinism witness the
	// capacity benchmark asserts.
	Checksum uint64
}

// Engine runs capacity Monte Carlos with a per-scenario memo: repeated
// queries over overlapping scenario sets (the sx4d capacity endpoint,
// repeated artifact renders) re-simulate nothing. The zero value is
// ready to use, with an unbounded memo; the memo is safe for
// concurrent engines and callers.
type Engine struct {
	memo target.FPCache[ScenarioResult]
}

// scenarioEntryBytes is one memo entry's cost against a budget: a map
// slot holding the fingerprint and the 88-byte ScenarioResult, which
// measured 136–213 B per entry in maps of 300 to 100 000 entries
// (go1.24, amd64).
const scenarioEntryBytes = 192

// SetBudget bounds the scenario memo to budget bytes (see
// target.FPCache.SetBudget); budget <= 0 leaves it unbounded. An
// evicted scenario is simulated again, to the same result. Call it
// once, before the engine is shared.
func (e *Engine) SetBudget(budget int64) {
	e.memo.SetBudget(budget, func(ScenarioResult) int64 { return scenarioEntryBytes })
}

// Stats exposes the scenario-memo counters (the /v1/stats surface).
func (e *Engine) Stats() target.CacheStats { return e.memo.Stats() }

// MonteCarlo runs cfg.Scenarios scenarios across the worker pool (the
// repo convention: 0 = GOMAXPROCS, 1 = serial) and aggregates. Results
// are collected and folded in scenario-index order, so the Report —
// checksum included — is byte-identical for every worker count.
func (e *Engine) MonteCarlo(cfg Config, workers int) (Report, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return Report{}, err
	}
	results := make([]ScenarioResult, cfg.Scenarios)
	// Scenarios are milliseconds each; batch them so the pool pays one
	// handoff per span, not per scenario.
	sched.ForEachGrain(workers, cfg.Scenarios, 8, func(i int) error {
		sc := cfg.ScenarioAt(i)
		results[i] = e.memo.LoadOrStore(cfg.fingerprint(sc), func() ScenarioResult {
			return cfg.simulate(sc)
		})
		return nil
	})
	return aggregate(cfg, results), nil
}

// aggregate folds scenario results (index order) into the report.
func aggregate(cfg Config, results []ScenarioResult) Report {
	rep := Report{Scenarios: len(results), Results: results}
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	perMix := make([][]ScenarioResult, len(cfg.Mixes))
	for _, r := range results {
		rep.Jobs += int64(r.Jobs)
		perMix[r.Mix] = append(perMix[r.Mix], r)
		word(uint64(r.Mix))
		word(uint64(r.Jobs))
		word(uint64(r.Finished))
		word(math.Float64bits(r.P50))
		word(math.Float64bits(r.P95))
		word(math.Float64bits(r.P99))
		word(math.Float64bits(r.Makespan))
		word(uint64(r.Recovered))
		word(uint64(r.Failed))
		word(uint64(r.Lost))
	}
	for mi, mix := range cfg.Mixes {
		rs := perMix[mi]
		ms := MixSummary{Mix: mix.Name, Pattern: mix.Pattern.String(), Scenarios: len(rs)}
		if len(rs) == 0 {
			rep.Mixes = append(rep.Mixes, ms)
			continue
		}
		p50s := make([]float64, 0, len(rs))
		p95s := make([]float64, 0, len(rs))
		p99s := make([]float64, 0, len(rs))
		makespans := make([]float64, 0, len(rs))
		for _, r := range rs {
			ms.Jobs += int64(r.Jobs)
			ms.Recovered += int64(r.Recovered)
			ms.Failed += int64(r.Failed)
			ms.Lost += int64(r.Lost)
			if r.Degraded {
				ms.Degraded++
			}
			p50s = append(p50s, r.P50)
			p95s = append(p95s, r.P95)
			p99s = append(p99s, r.P99)
			makespans = append(makespans, r.Makespan)
			if r.Makespan > ms.MakespanMax {
				ms.MakespanMax = r.Makespan
			}
		}
		ms.P50 = core.Percentiles(p50s, 50)[0]
		ms.P95 = core.Percentiles(p95s, 50)[0]
		ms.P99 = core.Percentiles(p99s, 50)[0]
		ms.MakespanP50 = core.Percentiles(makespans, 50)[0]
		rep.Mixes = append(rep.Mixes, ms)
	}
	rep.Checksum = h.Sum64()
	return rep
}
