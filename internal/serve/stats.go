package serve

import "sync/atomic"

// counter indexes the daemon's lifetime counters. Every query a handler
// resolves — a run query or a capacity query — that is then answered
// is classified exactly one way: cache hit, coalesced into an in-flight
// identical query, or executed; a query that fails is none of the
// three. So cache_hits + coalesced + runs_executed == run_queries +
// capacity_queries − failed queries, and the coalescing tests can
// assert executed < queries. The admission counters obey their own
// balance: admit_requests = admitted + shed + queue_timeouts +
// queue_cancelled, and admitted = completed + the in-flight gauge —
// the invariants the chaos soak asserts after quiescence.
type counter int

const (
	nRequests        counter = iota // HTTP requests accepted by any handler
	nRunQueries                     // run queries resolved (POST /v1/run + sweep lines)
	nSweepLines                     // NDJSON lines consumed by POST /v1/sweep
	nCacheHits                      // queries answered from the response cache
	nCoalesced                      // queries that shared an in-flight execution
	nRunsExecuted                   // queries that ran the simulation
	nErrors                         // queries and requests answered with an error
	nAdmitRequests                  // executions that asked for admission
	nAdmitted                       // executions granted a slot
	nShed                           // arrivals dropped on a full queue
	nQueueTimeouts                  // waits expired by the queue-wait deadline
	nQueueCancelled                 // waits abandoned by the client
	nCompleted                      // admitted executions finished (either way)
	nExecCancelled                  // executions abandoned mid-measurement by a dead context
	nSweepAborts                    // sweep streams stopped by client disconnect
	nCapacityQueries                // fleet capacity queries resolved (POST /v1/capacity)
	nCapacityJobs                   // jobs simulated by executed capacity queries
	numCounters
)

// counterNames names every counter in snapshot file order. The
// snapshot loader is strict: an unknown name is corruption, not
// forward compatibility — format changes bump the version header.
var counterNames = [numCounters]string{
	"requests", "run_queries", "sweep_lines", "cache_hits", "coalesced",
	"runs_executed", "errors", "admit_requests", "admitted", "shed",
	"queue_timeouts", "queue_cancelled", "completed", "exec_cancelled",
	"sweep_aborts", "capacity_queries", "capacity_jobs",
}

// serverStats holds the lifetime counters and the summed handler wall
// time, in microseconds.
type serverStats struct {
	n         [numCounters]atomic.Uint64
	latencyUS atomic.Int64
}

func (s *serverStats) inc(c counter) { s.n[c].Add(1) }

// restore seeds the lifetime counters from a warm-start snapshot, so a
// restarted daemon's books continue where the previous process left
// off instead of resetting to zero. Called before serving begins.
func (s *serverStats) restore(c StatCounters) {
	for i, v := range c {
		s.n[i].Store(v)
	}
}

// counters snapshots the raw counter values (the persisted subset).
func (s *serverStats) counters() StatCounters {
	var c StatCounters
	for i := range c {
		c[i] = s.n[i].Load()
	}
	return c
}

// StatCounters is the portable form of the lifetime counters, indexed
// like counterNames: what the cache snapshot persists, so the books
// survive a restart.
type StatCounters [numCounters]uint64

// Stats is the JSON shape of GET /v1/stats: the daemon's counters plus
// a snapshot of the response cache and the aggregated compiled-trace
// cache counters of every machine instance the daemon has built. Hit
// rate is over answered queries of both kinds (hits / (hits +
// coalesced + executed)); coalesced queries are not cache hits — the
// bytes had not been stored yet when they arrived.
type Stats struct {
	Requests     uint64 `json:"requests"`
	RunQueries   uint64 `json:"run_queries"`
	SweepLines   uint64 `json:"sweep_lines"`
	CacheHits    uint64 `json:"cache_hits"`
	Coalesced    uint64 `json:"coalesced"`
	RunsExecuted uint64 `json:"runs_executed"`
	Errors       uint64 `json:"errors"`

	CacheEntries int     `json:"cache_entries"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	// CacheBytes is the response cache's budgeted size (bodies plus
	// per-entry overhead, within Config.CacheBytes), and CacheEvictions
	// the answers it has dropped in this process's life; an evicted
	// answer is recomputed byte-identically when asked again.
	CacheBytes     int64  `json:"cache_bytes"`
	CacheEvictions uint64 `json:"cache_evictions"`

	// The admission-control books. QueueDepth and InFlight are
	// instantaneous gauges; the rest are lifetime counters satisfying
	// admit_requests = admitted + shed + queue_timeouts +
	// queue_cancelled and admitted = completed + in_flight.
	QueueDepth     int    `json:"queue_depth"`
	InFlight       int    `json:"in_flight"`
	AdmitRequests  uint64 `json:"admit_requests"`
	Admitted       uint64 `json:"admitted"`
	Shed           uint64 `json:"shed"`
	QueueTimeouts  uint64 `json:"queue_timeouts"`
	QueueCancelled uint64 `json:"queue_cancelled"`
	Completed      uint64 `json:"completed"`
	ExecCancelled  uint64 `json:"exec_cancelled"`
	SweepAborts    uint64 `json:"sweep_aborts"`

	// Warm-start provenance: whether this process booted from a cache
	// snapshot, and how many response entries it restored.
	WarmStart       bool `json:"warm_start"`
	RestoredEntries int  `json:"restored_entries"`

	// MemoHits/MemoMisses/MemoEntries aggregate the per-target
	// compiled-trace caches (Target.CacheStats), the layer below the
	// response cache: queries that differ in benchmark list or fault
	// schedule reuse the compiled traces they have in common.
	MemoHits    uint64 `json:"memo_hits"`
	MemoMisses  uint64 `json:"memo_misses"`
	MemoEntries int    `json:"memo_entries"`

	// The fleet capacity counters: queries answered, jobs simulated by
	// executed queries, and the scenario-level memo's activity (the
	// cache below the response cache — scenarios run cold versus served
	// from the memo across overlapping capacity queries).
	CapacityQueries      uint64 `json:"capacity_queries"`
	CapacityJobs         uint64 `json:"capacity_jobs_simulated"`
	CapacityScenariosRun uint64 `json:"capacity_scenarios_run"`
	CapacityScenarioHits uint64 `json:"capacity_scenario_cache_hits"`
	// CapacityScenarioEvictions counts scenarios the budgeted memo
	// dropped in this process's life.
	CapacityScenarioEvictions uint64 `json:"capacity_scenario_evictions"`

	LatencyTotalMS float64 `json:"latency_total_ms"`
	Machines       int     `json:"machines"`
}

// snapshot folds the counters into the wire shape. Cache entry counts,
// gauges and compiled-trace cache aggregates are supplied by the
// server, which owns those structures.
func (s *serverStats) snapshot() Stats {
	c := s.counters()
	out := Stats{
		Requests:     c[nRequests],
		RunQueries:   c[nRunQueries],
		SweepLines:   c[nSweepLines],
		CacheHits:    c[nCacheHits],
		Coalesced:    c[nCoalesced],
		RunsExecuted: c[nRunsExecuted],
		Errors:       c[nErrors],

		AdmitRequests:  c[nAdmitRequests],
		Admitted:       c[nAdmitted],
		Shed:           c[nShed],
		QueueTimeouts:  c[nQueueTimeouts],
		QueueCancelled: c[nQueueCancelled],
		Completed:      c[nCompleted],
		ExecCancelled:  c[nExecCancelled],
		SweepAborts:    c[nSweepAborts],

		CapacityQueries: c[nCapacityQueries],
		CapacityJobs:    c[nCapacityJobs],
	}
	out.LatencyTotalMS = float64(s.latencyUS.Load()) / 1e3
	if total := out.CacheHits + out.Coalesced + out.RunsExecuted; total > 0 {
		out.CacheHitRate = float64(out.CacheHits) / float64(total)
	}
	return out
}
