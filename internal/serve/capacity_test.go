package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// capacityBody is the small-fleet query the endpoint tests reuse: tiny
// scenario count so the cold execution stays fast.
const capacityBody = `{"fleet":"sx4-32,c90","scenarios":6,"seed":7}`

func TestCapacityEndpointDeterminismAndCache(t *testing.T) {
	s := New(Config{})

	first := post(t, s, "/v1/capacity", capacityBody)
	if first.Code != http.StatusOK {
		t.Fatalf("cold capacity query: status %d: %s", first.Code, first.Body.String())
	}
	if got := first.Header().Get("X-Sx4d-Cache"); got != "miss" {
		t.Fatalf("cold query cache state %q, want miss", got)
	}
	var resp CapacityResponse
	if err := json.Unmarshal(first.Body.Bytes(), &resp); err != nil {
		t.Fatalf("response not JSON: %v", err)
	}
	if resp.Nodes != 2 || resp.Scenarios != 6 || resp.Seed != 7 {
		t.Errorf("response shape: %+v", resp)
	}
	if len(resp.Mixes) != 3 {
		t.Errorf("response has %d mixes, want 3", len(resp.Mixes))
	}
	if resp.Jobs <= 0 || resp.Checksum == "" {
		t.Errorf("response missing totals: jobs=%d checksum=%q", resp.Jobs, resp.Checksum)
	}
	for _, ms := range resp.Mixes {
		if ms.Lost != 0 {
			t.Errorf("mix %s lost %d jobs over the wire", ms.Mix, ms.Lost)
		}
	}

	// The acceptance bar: a repeat query answers X-Sx4d-Cache: hit with
	// a byte-identical body — workers and the spec's case and spacing
	// included, since neither reaches the cache key.
	for _, body := range []string{
		capacityBody,
		`{"fleet":" SX4-32 , c90 ","scenarios":6,"seed":7,"workers":8}`,
	} {
		again := post(t, s, "/v1/capacity", body)
		if again.Code != http.StatusOK {
			t.Fatalf("repeat query %s: status %d", body, again.Code)
		}
		if got := again.Header().Get("X-Sx4d-Cache"); got != "hit" {
			t.Errorf("repeat query %s: cache state %q, want hit", body, got)
		}
		if again.Body.String() != first.Body.String() {
			t.Errorf("repeat query %s: body differs from first answer", body)
		}
	}
}

func TestCapacityScenarioMemoSpansQueries(t *testing.T) {
	// Two distinct queries over the same (fleet, seed) share scenario
	// simulations through the engine memo even though their response
	// cache entries differ: widening the scenario count re-simulates
	// only the new tail.
	s := New(Config{})
	if rr := post(t, s, "/v1/capacity", `{"fleet":"c90","scenarios":4,"seed":3}`); rr.Code != http.StatusOK {
		t.Fatalf("first query: %d: %s", rr.Code, rr.Body.String())
	}
	if rr := post(t, s, "/v1/capacity", `{"fleet":"c90","scenarios":6,"seed":3}`); rr.Code != http.StatusOK {
		t.Fatalf("widened query: %d: %s", rr.Code, rr.Body.String())
	}
	st := s.capacity.Stats()
	if st.Misses != 6 {
		t.Errorf("scenario memo ran %d cold simulations, want 6 (4 + the 2-scenario tail)", st.Misses)
	}
	if st.Hits != 4 {
		t.Errorf("scenario memo hits = %d, want 4 (the widened query's shared prefix)", st.Hits)
	}
}

// TestCapacityResponseIgnoresQueryHistory pins that a capacity answer
// is a function of the request alone: "c90x2" and "c90,c90" resolve to
// the same nodes but echo different spellings, so neither may be
// served the other's cached bytes.
func TestCapacityResponseIgnoresQueryHistory(t *testing.T) {
	const q = `{"fleet":"c90x2","scenarios":2,"seed":5}`
	fresh := post(t, New(Config{}), "/v1/capacity", q)
	s := New(Config{})
	post(t, s, "/v1/capacity", `{"fleet":"c90,c90","scenarios":2,"seed":5}`)
	after := post(t, s, "/v1/capacity", q)
	if fresh.Code != http.StatusOK || after.Code != http.StatusOK {
		t.Fatalf("status %d then %d", fresh.Code, after.Code)
	}
	if after.Body.String() != fresh.Body.String() {
		t.Fatalf("answer depends on query history:\nfresh daemon: %s\nafter c90,c90: %s", fresh.Body, after.Body)
	}
}

func TestCapacityStatsCounters(t *testing.T) {
	s := New(Config{})
	post(t, s, "/v1/capacity", capacityBody)
	post(t, s, "/v1/capacity", capacityBody)
	// Run and sweep queries share the hit/coalesced/executed counters.
	post(t, s, "/v1/run", `{"machine":"sparc20","benchmarks":["COPY"]}`)
	post(t, s, "/v1/sweep", `{"machine":"sparc20","benchmarks":["COPY"]}
{"machine":"sparc20","benchmarks":["IA"]}
`)

	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, httptest.NewRequest("GET", "/v1/stats", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("stats: %d", rr.Code)
	}
	var st Stats
	if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.CapacityQueries != 2 {
		t.Errorf("capacity_queries = %d, want 2", st.CapacityQueries)
	}
	if st.CapacityScenariosRun != 6 {
		t.Errorf("capacity_scenarios_run = %d, want 6 (second query was a response-cache hit)", st.CapacityScenariosRun)
	}
	if st.CapacityJobs == 0 {
		t.Error("capacity_jobs_simulated = 0 after an executed query")
	}
	if st.CacheHits == 0 {
		t.Error("the repeat capacity query did not register a response-cache hit")
	}
	// No query failed, so every resolved query of either kind was
	// classified exactly once.
	if got, want := st.CacheHits+st.Coalesced+st.RunsExecuted, st.RunQueries+st.CapacityQueries; got != want || want != 5 {
		t.Errorf("hits+coalesced+executed = %d, run+capacity queries = %d, want both 5", got, want)
	}
}

func TestCapacityRequestErrors(t *testing.T) {
	s := New(Config{})
	cases := []struct {
		name string
		body string
		code int
	}{
		{"malformed json", "{", http.StatusBadRequest},
		{"unknown field", `{"fleet":"c90","bogus":1}`, http.StatusBadRequest},
		{"trailing content", `{"fleet":"c90"} {}`, http.StatusBadRequest},
		{"trailing brace", `{"fleet":"c90"}}`, http.StatusBadRequest},
		{"trailing bracket", `{"fleet":"c90"} ]`, http.StatusBadRequest},
		{"empty fleet", `{"fleet":"  "}`, http.StatusBadRequest},
		{"negative scenarios", `{"fleet":"c90","scenarios":-1}`, http.StatusBadRequest},
		{"huge scenarios", `{"fleet":"c90","scenarios":1000000}`, http.StatusBadRequest},
		{"huge workers", `{"fleet":"c90","workers":99999}`, http.StatusBadRequest},
		{"unknown machine", `{"fleet":"pdp11"}`, http.StatusNotFound},
		{"bad replication", `{"fleet":"c90x0"}`, http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rr := post(t, s, "/v1/capacity", tc.body)
			if rr.Code != tc.code {
				t.Errorf("status %d, want %d: %s", rr.Code, tc.code, rr.Body.String())
			}
			var e map[string]string
			if err := json.Unmarshal(rr.Body.Bytes(), &e); err != nil || e["error"] == "" {
				t.Errorf("error body not the {\"error\": ...} shape: %s", rr.Body.String())
			}
		})
	}
}
