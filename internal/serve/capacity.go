package serve

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"strings"

	"sx4bench/internal/fleet"
)

// CapacityRequest is the wire form of one fleet capacity query: a
// Monte Carlo of week-long scenarios — seeded arrival mixes × per-node
// fault plans × degraded fleets — over the fleet described by the
// specification string. Like run queries, capacity queries are
// content-addressed: the cache key folds the canonical spelling, which
// the response echoes, and the resolved node configurations. So only
// case and space variants of one spelling share a cached response
// ("c90x2" and "c90,c90" do not), and a machine-model change
// invalidates it.
type CapacityRequest struct {
	// Fleet is a fleet specification: comma-separated registry names,
	// each with an optional "xN" replication suffix ("sx4-32x2,c90").
	Fleet string `json:"fleet"`
	// Scenarios is the Monte Carlo draw count; 0 means
	// fleet.DefaultScenarios.
	Scenarios int `json:"scenarios,omitempty"`
	// Seed is the fleet seed every scenario derives from; 0 means
	// fleet.DefaultSeed.
	Seed int64 `json:"seed,omitempty"`
	// Workers is the scenario-level parallelism (0 = GOMAXPROCS, 1 =
	// serial). It never changes a response byte and is excluded from
	// the cache key.
	Workers int `json:"workers,omitempty"`
}

// maxCapacityScenarios bounds one capacity query: far above any
// meaningful planning sweep, far below anything that could turn one
// request into a denial of service.
const maxCapacityScenarios = 1 << 16

// DecodeCapacityRequest parses one JSON-encoded capacity request with
// the same strictness as run requests: unknown fields, trailing
// content and out-of-range numbers are errors, never silent defaults.
func DecodeCapacityRequest(data []byte) (CapacityRequest, error) {
	var r CapacityRequest
	if err := decodeStrict(data, &r); err != nil {
		return CapacityRequest{}, fmt.Errorf("serve: decoding capacity request: %w", err)
	}
	if err := r.Validate(); err != nil {
		return CapacityRequest{}, err
	}
	return r, nil
}

// Validate checks the request's shape without touching the machine
// registry (unknown fleet members surface when the spec resolves, not
// here).
func (r CapacityRequest) Validate() error {
	if strings.TrimSpace(r.Fleet) == "" {
		return fmt.Errorf("serve: capacity request names no fleet")
	}
	if r.Scenarios < 0 || r.Scenarios > maxCapacityScenarios {
		return fmt.Errorf("serve: scenarios %d out of range [0, %d]", r.Scenarios, maxCapacityScenarios)
	}
	if r.Workers < 0 || r.Workers > maxWorkers {
		return fmt.Errorf("serve: workers %d out of range [0, %d]", r.Workers, maxWorkers)
	}
	return nil
}

// Canonical returns the request in cache-key form: the fleet spec
// normalized the way the registry matches names, the zero knobs
// resolved to their canonical defaults, and workers zeroed (it cannot
// change a response byte).
func (r CapacityRequest) Canonical() CapacityRequest {
	out := r
	out.Fleet = strings.ToLower(strings.ReplaceAll(r.Fleet, " ", ""))
	out.Workers = 0
	if out.Scenarios == 0 {
		out.Scenarios = fleet.DefaultScenarios
	}
	if out.Seed == 0 {
		out.Seed = fleet.DefaultSeed
	}
	return out
}

// fingerprint content-addresses the canonical request against the
// resolved fleet: an FNV-1a fold of the canonical spelling (the
// response echoes it), every node's configuration fingerprint and
// shape, and the scenario knobs, under a tag that keeps capacity keys
// disjoint from run-request keys in the shared response cache.
func (r CapacityRequest) fingerprint(nodes []fleet.NodeSpec) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	h.Write([]byte("sx4d-capacity\x00"))
	h.Write([]byte(r.Fleet))
	h.Write([]byte{0})
	for _, n := range nodes {
		word(n.Fingerprint)
		word(uint64(n.CPUs))
	}
	word(uint64(r.Scenarios))
	word(uint64(r.Seed))
	return h.Sum64()
}

// CapacityMixSummary is the wire form of one mix's aggregate.
type CapacityMixSummary struct {
	Mix         string  `json:"mix"`
	Pattern     string  `json:"pattern"`
	Scenarios   int     `json:"scenarios"`
	Degraded    int     `json:"degraded"`
	Jobs        int64   `json:"jobs"`
	P50Seconds  float64 `json:"p50_s"`
	P95Seconds  float64 `json:"p95_s"`
	P99Seconds  float64 `json:"p99_s"`
	MakespanP50 float64 `json:"makespan_p50_s"`
	MakespanMax float64 `json:"makespan_max_s"`
	Recovered   int64   `json:"recovered"`
	Failed      int64   `json:"failed"`
	Lost        int64   `json:"lost"`
}

// CapacityResponse is the wire shape of one answered capacity query.
type CapacityResponse struct {
	Fleet     string `json:"fleet"`
	Nodes     int    `json:"nodes"`
	Scenarios int    `json:"scenarios"`
	Seed      int64  `json:"seed"`
	Jobs      int64  `json:"jobs"`
	// Checksum is the report's scenario-stream fold as fixed-width hex
	// — the determinism witness clients can compare across daemons.
	Checksum string               `json:"checksum"`
	Mixes    []CapacityMixSummary `json:"mixes"`
}

// capacityQuery decodes one capacity request and resolves it into a
// query under the capacity class — the first to queue and the first
// to shed when the daemon saturates, because one Monte Carlo costs
// what thousands of run queries do. The scenario-level memo
// (s.capacity) sits below the response cache, so even a novel query
// re-simulates only scenarios no earlier query ran.
func (s *Server) capacityQuery(data []byte) (query, error) {
	req, err := DecodeCapacityRequest(data)
	if err != nil {
		return query{}, failf(http.StatusBadRequest, "%s", err)
	}
	s.stats.inc(nCapacityQueries)
	canon := req.Canonical()
	nodes, err := fleet.ParseSpec(canon.Fleet)
	if err != nil {
		return query{}, failf(http.StatusNotFound, "%s", err)
	}
	return query{classCapacity, canon.fingerprint(nodes), func(context.Context) ([]byte, error) {
		return s.executeCapacity(canon, nodes, req.Workers)
	}}, nil
}

// executeCapacity runs the canonical query's Monte Carlo and renders
// the response bytes. workers rides alongside the canonical request
// (it shapes the evaluation schedule, never the bytes).
func (s *Server) executeCapacity(canon CapacityRequest, nodes []fleet.NodeSpec, workers int) ([]byte, error) {
	cfg := fleet.Config{
		Nodes:     nodes,
		Mixes:     fleet.CanonicalMixes(),
		Scenarios: canon.Scenarios,
		Seed:      canon.Seed,
	}
	rep, err := s.capacity.MonteCarlo(cfg, workers)
	if err != nil {
		return nil, failf(http.StatusUnprocessableEntity, "%s", err)
	}
	s.stats.n[nCapacityJobs].Add(uint64(rep.Jobs))
	resp := CapacityResponse{
		Fleet:     canon.Fleet,
		Nodes:     len(nodes),
		Scenarios: rep.Scenarios,
		Seed:      canon.Seed,
		Jobs:      rep.Jobs,
		Checksum:  fmt.Sprintf("%016x", rep.Checksum),
	}
	for _, ms := range rep.Mixes {
		resp.Mixes = append(resp.Mixes, CapacityMixSummary{
			Mix:         ms.Mix,
			Pattern:     ms.Pattern,
			Scenarios:   ms.Scenarios,
			Degraded:    ms.Degraded,
			Jobs:        ms.Jobs,
			P50Seconds:  ms.P50,
			P95Seconds:  ms.P95,
			P99Seconds:  ms.P99,
			MakespanP50: ms.MakespanP50,
			MakespanMax: ms.MakespanMax,
			Recovered:   ms.Recovered,
			Failed:      ms.Failed,
			Lost:        ms.Lost,
		})
	}
	body, err := json.Marshal(resp)
	if err != nil {
		return nil, err
	}
	return append(body, '\n'), nil
}
