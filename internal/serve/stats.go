package serve

import "sync/atomic"

// serverStats holds the daemon's lifetime counters. Every run query is
// classified exactly one way — cache hit, coalesced into an in-flight
// identical query, or executed — so hits+coalesced+executed equals the
// query count and the coalescing tests can assert executed < queries.
// The admission counters obey their own balance: every execution
// attempt is exactly one of admitted, shed, timed out or cancelled,
// and every admitted execution completes — the invariants the chaos
// soak asserts after quiescence.
type serverStats struct {
	requests   atomic.Uint64 // HTTP requests accepted by any handler
	runQueries atomic.Uint64 // individual run queries (POST /v1/run + sweep lines)
	sweepLines atomic.Uint64 // NDJSON lines consumed by POST /v1/sweep
	hits       atomic.Uint64 // queries answered from the response cache
	coalesced  atomic.Uint64 // queries that shared an in-flight execution
	executed   atomic.Uint64 // queries that ran the simulation
	errors     atomic.Uint64 // queries and requests answered with an error
	latencyUS  atomic.Int64  // summed handler wall time, microseconds

	// Admission accounting: admitRequests = admitted + shed +
	// queueTimeouts + queueCancelled, and admitted = completed +
	// in-flight gauge.
	admitRequests  atomic.Uint64 // executions that asked for admission
	admitted       atomic.Uint64 // executions granted a slot
	shed           atomic.Uint64 // arrivals dropped on a full queue
	queueTimeouts  atomic.Uint64 // waits expired by the queue-wait deadline
	queueCancelled atomic.Uint64 // waits abandoned by the client
	completed      atomic.Uint64 // admitted executions finished (either way)
	execCancelled  atomic.Uint64 // executions abandoned mid-measurement by a dead context
	sweepAborts    atomic.Uint64 // sweep streams stopped by client disconnect

	capacityQueries atomic.Uint64 // fleet capacity queries (POST /v1/capacity)
	capacityJobs    atomic.Uint64 // jobs simulated by executed capacity queries
}

// restore seeds the lifetime counters from a warm-start snapshot, so a
// restarted daemon's books continue where the previous process left
// off instead of resetting to zero. Called before serving begins.
func (s *serverStats) restore(c StatCounters) {
	s.requests.Store(c.Requests)
	s.runQueries.Store(c.RunQueries)
	s.sweepLines.Store(c.SweepLines)
	s.hits.Store(c.CacheHits)
	s.coalesced.Store(c.Coalesced)
	s.executed.Store(c.RunsExecuted)
	s.errors.Store(c.Errors)
	s.admitRequests.Store(c.AdmitRequests)
	s.admitted.Store(c.Admitted)
	s.shed.Store(c.Shed)
	s.queueTimeouts.Store(c.QueueTimeouts)
	s.queueCancelled.Store(c.QueueCancelled)
	s.completed.Store(c.Completed)
	s.execCancelled.Store(c.ExecCancelled)
	s.sweepAborts.Store(c.SweepAborts)
	s.capacityQueries.Store(c.CapacityQueries)
	s.capacityJobs.Store(c.CapacityJobs)
}

// counters snapshots the raw counter values (the persisted subset).
func (s *serverStats) counters() StatCounters {
	return StatCounters{
		Requests:        s.requests.Load(),
		RunQueries:      s.runQueries.Load(),
		SweepLines:      s.sweepLines.Load(),
		CacheHits:       s.hits.Load(),
		Coalesced:       s.coalesced.Load(),
		RunsExecuted:    s.executed.Load(),
		Errors:          s.errors.Load(),
		AdmitRequests:   s.admitRequests.Load(),
		Admitted:        s.admitted.Load(),
		Shed:            s.shed.Load(),
		QueueTimeouts:   s.queueTimeouts.Load(),
		QueueCancelled:  s.queueCancelled.Load(),
		Completed:       s.completed.Load(),
		ExecCancelled:   s.execCancelled.Load(),
		SweepAborts:     s.sweepAborts.Load(),
		CapacityQueries: s.capacityQueries.Load(),
		CapacityJobs:    s.capacityJobs.Load(),
	}
}

// StatCounters is the portable form of the lifetime counters: what the
// cache snapshot persists, so the books survive a restart.
type StatCounters struct {
	Requests        uint64
	RunQueries      uint64
	SweepLines      uint64
	CacheHits       uint64
	Coalesced       uint64
	RunsExecuted    uint64
	Errors          uint64
	AdmitRequests   uint64
	Admitted        uint64
	Shed            uint64
	QueueTimeouts   uint64
	QueueCancelled  uint64
	Completed       uint64
	ExecCancelled   uint64
	SweepAborts     uint64
	CapacityQueries uint64
	CapacityJobs    uint64
}

// Stats is the JSON shape of GET /v1/stats: the daemon's counters plus
// a snapshot of the response cache and the aggregated compiled-trace
// cache counters of every machine instance the daemon has built. Hit rate is
// over run queries (hits / (hits + coalesced + executed)); coalesced
// queries are not cache hits — the bytes had not been stored yet when
// they arrived.
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

	LatencyTotalMS float64 `json:"latency_total_ms"`
	Machines       int     `json:"machines"`
}

// snapshot folds the counters into the wire shape. Cache entry counts,
// gauges and compiled-trace cache aggregates are supplied by the
// server, which owns those structures.
func (s *serverStats) snapshot() Stats {
	c := s.counters()
	out := Stats{
		Requests:     c.Requests,
		RunQueries:   c.RunQueries,
		SweepLines:   c.SweepLines,
		CacheHits:    c.CacheHits,
		Coalesced:    c.Coalesced,
		RunsExecuted: c.RunsExecuted,
		Errors:       c.Errors,

		AdmitRequests:  c.AdmitRequests,
		Admitted:       c.Admitted,
		Shed:           c.Shed,
		QueueTimeouts:  c.QueueTimeouts,
		QueueCancelled: c.QueueCancelled,
		Completed:      c.Completed,
		ExecCancelled:  c.ExecCancelled,
		SweepAborts:    c.SweepAborts,

		CapacityQueries: c.CapacityQueries,
		CapacityJobs:    c.CapacityJobs,
	}
	out.LatencyTotalMS = float64(s.latencyUS.Load()) / 1e3
	if total := out.CacheHits + out.Coalesced + out.RunsExecuted; total > 0 {
		out.CacheHitRate = float64(out.CacheHits) / float64(total)
	}
	return out
}
