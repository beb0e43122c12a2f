package chaos_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"sx4bench/internal/chaos"
	"sx4bench/internal/serve"

	_ "sx4bench/internal/machine" // register the modeled machines
)

// The soak's seeds: at least three distinct schedules per run (the
// acceptance bar), overridable for reproduction of a failure at any
// other seed.
var soakSeeds = flag.String("chaos.seeds", "1,2,3", "comma-separated chaos soak seeds")

// soakQueries is the canonical traffic mix: a few distinct cheap run
// and capacity queries (repeats become cache hits), hit from many
// goroutines.
var soakQueries = []struct{ path, body string }{
	{"/v1/run", `{"machine": "sx4-32", "benchmarks": ["COPY"]}`},
	{"/v1/run", `{"machine": "sx4-32", "benchmarks": ["IA"]}`},
	{"/v1/run", `{"machine": "sx4-1", "benchmarks": ["COPY"]}`},
	{"/v1/run", `{"machine": "ymp", "benchmarks": ["XPOSE"]}`},
	{"/v1/run", `{"machine": "sx4-32", "benchmarks": ["COPY", "IA"], "fault_seed": 3}`},
	{"/v1/capacity", `{"fleet": "c90", "scenarios": 2, "seed": 1}`},
	{"/v1/capacity", `{"fleet": "c90", "scenarios": 2, "seed": 2}`},
}

// TestChaosSoak floods a chaos-wrapped daemon with concurrent traffic
// at several seeds and asserts the robustness invariants afterwards:
// every request got exactly one response, every 200 body for the same
// query is byte-identical, the admission books balance, the gauges
// return to zero, the cache snapshot renders deterministically, and no
// goroutines leak. Run via `make chaos` (always under -race).
func TestChaosSoak(t *testing.T) {
	for _, field := range strings.Split(*soakSeeds, ",") {
		var seed int64
		if _, err := fmt.Sscanf(strings.TrimSpace(field), "%d", &seed); err != nil {
			t.Fatalf("bad -chaos.seeds entry %q: %v", field, err)
		}
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { soak(t, seed) })
	}
}

func soak(t *testing.T, seed int64) {
	before := runtime.NumGoroutine()
	srv := serve.New(serve.Config{
		MaxConcurrent: 2,
		QueueDepth:    4,
		QueueWait:     50 * time.Millisecond,
	})
	plan := chaos.NewPlan(seed)
	ts := httptest.NewServer(plan.Middleware(srv))

	const workers = 8
	const perWorker = 24
	type outcome struct {
		query string
		code  int
		body  []byte
	}
	results := make(chan outcome, workers*perWorker)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				q := soakQueries[(w*perWorker+i)%len(soakQueries)]
				resp, err := http.Post(ts.URL+q.path, "application/json", strings.NewReader(q.body))
				if err != nil {
					t.Errorf("request error (lost response): %v", err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Errorf("reading response: %v", err)
					return
				}
				results <- outcome{query: q.path + " " + q.body, code: resp.StatusCode, body: body}
			}
		}(w)
	}
	wg.Wait()
	close(results)

	// No lost responses: every request produced exactly one outcome.
	byQuery := make(map[string][][]byte)
	codes := make(map[int]int)
	n := 0
	for o := range results {
		n++
		codes[o.code]++
		switch o.code {
		case 200:
			byQuery[o.query] = append(byQuery[o.query], o.body)
		case 503:
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(o.body, &e); err != nil || e.Error == "" {
				t.Errorf("503 body is not the error shape: %q", o.body)
			}
		default:
			t.Errorf("unexpected status %d: %s", o.code, o.body)
		}
	}
	if n != workers*perWorker {
		t.Fatalf("lost responses: got %d outcomes for %d requests", n, workers*perWorker)
	}
	t.Logf("seed %d: %d requests, codes %v, %d disturbances drawn", seed, n, codes, plan.Requests())

	// Byte-consistency: all 200 answers to one query are identical.
	for q, bodies := range byQuery {
		for _, b := range bodies[1:] {
			if !bytes.Equal(b, bodies[0]) {
				t.Fatalf("divergent responses for %s:\n%s\nvs\n%s", q, bodies[0], b)
			}
		}
	}

	ts.Close() // drains outstanding keep-alive connections

	// The admission books balance once quiesced.
	st := stats(t, srv)
	if st.AdmitRequests != st.Admitted+st.Shed+st.QueueTimeouts+st.QueueCancelled {
		t.Fatalf("admission books unbalanced: %+v", st)
	}
	if st.Admitted != st.Completed {
		t.Fatalf("admitted %d != completed %d after quiescence", st.Admitted, st.Completed)
	}
	if st.QueueDepth != 0 || st.InFlight != 0 {
		t.Fatalf("gauges nonzero after quiescence: depth=%d inflight=%d", st.QueueDepth, st.InFlight)
	}
	// Every query was classified exactly one way.
	if st.CacheHits+st.Coalesced+st.RunsExecuted+uint64(errorCount(codes)) < uint64(n) {
		t.Fatalf("query classifications don't cover the traffic: %+v vs %d requests", st, n)
	}

	// The cache snapshot renders byte-identically (and parses).
	a := srv.Snapshot().Render()
	b := srv.Snapshot().Render()
	if !bytes.Equal(a, b) {
		t.Fatalf("snapshot render nondeterministic after soak")
	}
	if _, err := serve.ParseSnapshot(a); err != nil {
		t.Fatalf("soak snapshot does not parse: %v", err)
	}

	// No goroutine leaks: the count returns to (about) where it began.
	waitGoroutines(t, before+3)
}

func errorCount(codes map[int]int) int {
	n := 0
	for code, c := range codes {
		if code != 200 {
			n += c
		}
	}
	return n
}

func stats(t *testing.T, srv *serve.Server) serve.Stats {
	t.Helper()
	rr := httptest.NewRecorder()
	srv.ServeHTTP(rr, httptest.NewRequest("GET", "/v1/stats", nil))
	if rr.Code != 200 {
		t.Fatalf("stats: %d", rr.Code)
	}
	var st serve.Stats
	if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
		t.Fatalf("decoding stats: %v", err)
	}
	return st
}

func waitGoroutines(t *testing.T, limit int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= limit {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d > %d\n%s", runtime.NumGoroutine(), limit,
				buf[:runtime.Stack(buf, true)])
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGracefulDrainUnderChaos is the drain story end to end, in
// process: a sweep is streaming through latency-injecting chaos when
// the server begins a graceful shutdown (what SIGTERM triggers in
// cmd/sx4d). The drain must let the sweep finish — every line
// answered, none lost — and the post-drain snapshot must hand the next
// life a cache that answers the swept queries as hits.
func TestGracefulDrainUnderChaos(t *testing.T) {
	srv := serve.New(serve.Config{MaxConcurrent: 2})
	plan := &chaos.Plan{Seed: 1996, Rate: 1, MaxLatency: 2 * time.Millisecond, Kinds: []chaos.Kind{chaos.Latency}}
	hs := &http.Server{Handler: plan.Middleware(srv)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()

	var lines []string
	for _, q := range soakQueries {
		if q.path == "/v1/run" {
			lines = append(lines, q.body)
		}
	}
	body := strings.Join(lines, "\n") + "\n"

	type sweepResult struct {
		answers []string
		err     error
	}
	sweepDone := make(chan sweepResult, 1)
	firstLine := make(chan struct{})
	go func() {
		resp, err := http.Post("http://"+ln.Addr().String()+"/v1/sweep",
			"application/x-ndjson", strings.NewReader(body))
		if err != nil {
			sweepDone <- sweepResult{err: err}
			close(firstLine)
			return
		}
		defer resp.Body.Close()
		var res sweepResult
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
		first := true
		for sc.Scan() {
			res.answers = append(res.answers, sc.Text())
			if first {
				close(firstLine)
				first = false
			}
		}
		res.err = sc.Err()
		sweepDone <- res
	}()

	// Begin the drain mid-stream: after the first answer line, with the
	// rest still to produce.
	<-firstLine
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		t.Fatalf("drain did not complete: %v", err)
	}
	res := <-sweepDone
	if res.err != nil {
		t.Fatalf("sweep stream broken by drain: %v", res.err)
	}
	if len(res.answers) != len(lines) {
		t.Fatalf("drain lost jobs: %d answers for %d lines\n%v", len(res.answers), len(lines), res.answers)
	}
	for i, a := range res.answers {
		if strings.Contains(a, `"error"`) {
			t.Fatalf("line %d answered with an error during drain: %s", i, a)
		}
	}
	if err := <-served; err != http.ErrServerClosed {
		t.Fatalf("serve: %v", err)
	}

	// The drain snapshot carries the swept answers into the next life.
	path := filepath.Join(t.TempDir(), "drain.snap")
	if err := srv.WriteSnapshot(path); err != nil {
		t.Fatalf("post-drain snapshot: %v", err)
	}
	next := serve.New(serve.Config{})
	if _, err := next.LoadSnapshot(path); err != nil {
		t.Fatalf("next life failed to load drain snapshot: %v", err)
	}
	rr := httptest.NewRecorder()
	next.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/run", strings.NewReader(soakQueries[0].body)))
	if rr.Code != 200 || rr.Header().Get("X-Sx4d-Cache") != "hit" {
		t.Fatalf("post-restart query: %d cache=%q, want 200 hit", rr.Code, rr.Header().Get("X-Sx4d-Cache"))
	}
	if rr.Body.String() != res.answers[0]+"\n" {
		t.Fatalf("post-restart body differs from the drained sweep's first answer")
	}
}
