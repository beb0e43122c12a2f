package client

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"sx4bench/internal/serve"

	_ "sx4bench/internal/machine" // register the modeled machines
)

// TestBackoffDeterministic pins the jitter contract: Backoff is a pure
// function — same (seed, attempt) → same wait, forever.
func TestBackoffDeterministic(t *testing.T) {
	for attempt := 1; attempt <= 10; attempt++ {
		a := Backoff(7, attempt, 100*time.Millisecond, 5*time.Second)
		b := Backoff(7, attempt, 100*time.Millisecond, 5*time.Second)
		if a != b {
			t.Fatalf("attempt %d: %v != %v", attempt, a, b)
		}
	}
}

// TestBackoffEnvelope pins the shape: waits grow exponentially within
// [cap/2, cap) and never exceed the configured maximum.
func TestBackoffEnvelope(t *testing.T) {
	base, max := 100*time.Millisecond, 2*time.Second
	ceil := base
	for attempt := 1; attempt <= 12; attempt++ {
		w := Backoff(3, attempt, base, max)
		if w < ceil/2 || w >= ceil {
			t.Fatalf("attempt %d: wait %v outside [%v, %v)", attempt, w, ceil/2, ceil)
		}
		if ceil < max {
			ceil *= 2
			if ceil > max {
				ceil = max
			}
		}
	}
}

// TestBackoffSpreadsTheHerd is the thundering-herd test: many clients
// retrying the same failure at the same attempt must not wake in
// lockstep. With per-client seeds the first-retry waits spread across
// the jitter window instead of colliding on one instant.
func TestBackoffSpreadsTheHerd(t *testing.T) {
	const clients = 64
	base, max := 100*time.Millisecond, 5*time.Second
	waits := make(map[time.Duration]int)
	for seed := uint64(0); seed < clients; seed++ {
		waits[Backoff(seed, 1, base, max)]++
	}
	// All 64 waits identical would be a herd; distinct jitter draws make
	// collisions rare. Demand at least half the window is occupied by
	// distinct instants.
	if len(waits) < clients/2 {
		t.Fatalf("only %d distinct waits across %d clients: herd not spread (%v)", len(waits), clients, waits)
	}
}

// flakyHandler answers 503 + Retry-After until `fail` attempts have
// been consumed, then delegates.
type flakyHandler struct {
	fail    int32
	imposed string // Retry-After value on the failures
	next    http.Handler
	hits    atomic.Int32
}

func (f *flakyHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.hits.Add(1)
	if atomic.AddInt32(&f.fail, -1) >= 0 {
		if f.imposed != "" {
			w.Header().Set("Retry-After", f.imposed)
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"error": "test: shedding"}`)
		return
	}
	f.next.ServeHTTP(w, r)
}

// instantClient builds a client whose backoff waits are recorded, not
// slept, so retry tests run in microseconds.
func instantClient(url string, waits *[]time.Duration) *Client {
	return New(Config{
		BaseURL:    url,
		JitterSeed: 11,
		Sleep: func(ctx context.Context, d time.Duration) error {
			*waits = append(*waits, d)
			return ctx.Err()
		},
	})
}

func TestRunRetriesThrough503(t *testing.T) {
	fh := &flakyHandler{fail: 2, next: serve.New(serve.Config{})}
	ts := httptest.NewServer(fh)
	defer ts.Close()

	var waits []time.Duration
	c := instantClient(ts.URL, &waits)
	res, err := c.Run(context.Background(), serve.RunRequest{Machine: "sx4-32", Benchmarks: []string{"COPY"}})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := fh.hits.Load(); got != 3 {
		t.Fatalf("server saw %d attempts, want 3", got)
	}
	if len(waits) != 2 {
		t.Fatalf("client slept %d times, want 2", len(waits))
	}
	if res.CacheState != "miss" {
		t.Fatalf("cache state %q, want miss", res.CacheState)
	}
	if len(res.Response.Results) != 1 || res.Response.Results[0].Name != "COPY" {
		t.Fatalf("unexpected response: %+v", res.Response)
	}

	// Idempotent retry safety, made exact by content addressing: the
	// same query again is a byte-identical cache hit.
	again, err := c.Run(context.Background(), serve.RunRequest{Machine: "sx4-32", Benchmarks: []string{"COPY"}})
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if again.CacheState != "hit" || string(again.Body) != string(res.Body) {
		t.Fatalf("retried query not served from cache byte-identically: %q", again.CacheState)
	}
}

// TestRunHonorsRetryAfter pins the header contract: when the server's
// Retry-After exceeds the computed backoff, the client waits the
// server's number.
func TestRunHonorsRetryAfter(t *testing.T) {
	fh := &flakyHandler{fail: 1, imposed: "7", next: serve.New(serve.Config{})}
	ts := httptest.NewServer(fh)
	defer ts.Close()

	var waits []time.Duration
	c := instantClient(ts.URL, &waits)
	if _, err := c.Run(context.Background(), serve.RunRequest{Machine: "sx4-32", Benchmarks: []string{"COPY"}}); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(waits) != 1 || waits[0] != 7*time.Second {
		t.Fatalf("waits = %v, want exactly [7s] (server's Retry-After)", waits)
	}
}

// TestRunGivesUpAfterMaxRetries pins the retry bound and the
// exhaustion error shape.
func TestRunGivesUpAfterMaxRetries(t *testing.T) {
	fh := &flakyHandler{fail: 1 << 20, next: serve.New(serve.Config{})}
	ts := httptest.NewServer(fh)
	defer ts.Close()

	var waits []time.Duration
	c := instantClient(ts.URL, &waits)
	_, err := c.Run(context.Background(), serve.RunRequest{Machine: "sx4-32", Benchmarks: []string{"COPY"}})
	if err == nil {
		t.Fatalf("run succeeded against a permanently shedding server")
	}
	if got := fh.hits.Load(); got != DefaultMaxRetries+1 {
		t.Fatalf("server saw %d attempts, want %d", got, DefaultMaxRetries+1)
	}
}

// TestRunDoesNotRetryClientErrors pins the other half of the policy: a
// 4xx is the request's fault and retrying it would be abuse.
func TestRunDoesNotRetryClientErrors(t *testing.T) {
	fh := &flakyHandler{fail: 0, next: serve.New(serve.Config{})}
	ts := httptest.NewServer(fh)
	defer ts.Close()

	var waits []time.Duration
	c := instantClient(ts.URL, &waits)
	_, err := c.Run(context.Background(), serve.RunRequest{Machine: "no-such-machine"})
	if err == nil {
		t.Fatalf("run succeeded for an unknown machine")
	}
	if got := fh.hits.Load(); got != 1 {
		t.Fatalf("client retried a non-retryable failure: %d attempts", got)
	}
	if len(waits) != 0 {
		t.Fatalf("client backed off for a non-retryable failure: %v", waits)
	}
}

func TestSweepStreams(t *testing.T) {
	ts := httptest.NewServer(serve.New(serve.Config{}))
	defer ts.Close()

	c := New(Config{BaseURL: ts.URL})
	reqs := []serve.RunRequest{
		{Machine: "sx4-32", Benchmarks: []string{"COPY"}},
		{Machine: "no-such-machine"},
		{Machine: "sx4-32", Benchmarks: []string{"IA"}},
	}
	var lines [][]byte
	err := c.Sweep(context.Background(), reqs, func(i int, line []byte) error {
		if i != len(lines) {
			t.Fatalf("lines out of order: got index %d, want %d", i, len(lines))
		}
		cp := append([]byte{}, line...)
		lines = append(lines, cp)
		return nil
	})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if len(lines) != len(reqs) {
		t.Fatalf("got %d answer lines for %d requests", len(lines), len(reqs))
	}
	// Line 1 is a per-line error (bulk submission survives bad lines);
	// lines 0 and 2 are real responses.
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(lines[1], &e); err != nil || e.Error == "" {
		t.Fatalf("line 1 should be an error line: %s", lines[1])
	}
	var r serve.RunResponse
	if err := json.Unmarshal(lines[0], &r); err != nil || len(r.Results) != 1 {
		t.Fatalf("line 0: %s", lines[0])
	}
}

// TestSweepRetriesBeforeFirstLine pins the streaming retry rule: a 503
// at stream start replays (nothing was delivered); the replay is exact
// because the requests are content-addressed.
func TestSweepRetriesBeforeFirstLine(t *testing.T) {
	fh := &flakyHandler{fail: 1, next: serve.New(serve.Config{})}
	ts := httptest.NewServer(fh)
	defer ts.Close()

	var waits []time.Duration
	c := instantClient(ts.URL, &waits)
	n := 0
	err := c.Sweep(context.Background(), []serve.RunRequest{{Machine: "sx4-32", Benchmarks: []string{"COPY"}}},
		func(i int, line []byte) error { n++; return nil })
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if n != 1 {
		t.Fatalf("answer lines = %d, want 1 (no duplicates from the retry)", n)
	}
	if got := fh.hits.Load(); got != 2 {
		t.Fatalf("server saw %d attempts, want 2", got)
	}
}

// TestSweepHonorsRetryAfter pins the header contract for sweeps: a
// shed stream start waits the server's Retry-After, as Run does.
func TestSweepHonorsRetryAfter(t *testing.T) {
	fh := &flakyHandler{fail: 1, imposed: "7", next: serve.New(serve.Config{})}
	ts := httptest.NewServer(fh)
	defer ts.Close()

	var waits []time.Duration
	c := instantClient(ts.URL, &waits)
	err := c.Sweep(context.Background(), []serve.RunRequest{{Machine: "sx4-32", Benchmarks: []string{"COPY"}}},
		func(i int, line []byte) error { return nil })
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if len(waits) != 1 || waits[0] != 7*time.Second {
		t.Fatalf("waits = %v, want exactly [7s] (server's Retry-After)", waits)
	}
}

// TestSweepDoesNotRetryDeliveredLines pins the other half of the
// streaming rule: once a line has reached fn, a failure — here fn's
// own — ends the sweep without another attempt.
func TestSweepDoesNotRetryDeliveredLines(t *testing.T) {
	fh := &flakyHandler{fail: 0, next: serve.New(serve.Config{})}
	ts := httptest.NewServer(fh)
	defer ts.Close()

	var waits []time.Duration
	c := instantClient(ts.URL, &waits)
	stop := errors.New("test: stop")
	err := c.Sweep(context.Background(), []serve.RunRequest{{Machine: "sx4-32", Benchmarks: []string{"COPY"}}},
		func(i int, line []byte) error { return stop })
	if !errors.Is(err, stop) {
		t.Fatalf("sweep error = %v, want fn's own error", err)
	}
	if got := fh.hits.Load(); got != 1 || len(waits) != 0 {
		t.Fatalf("server saw %d attempts after %d waits, want 1 and none", got, len(waits))
	}
}

func TestStats(t *testing.T) {
	ts := httptest.NewServer(serve.New(serve.Config{}))
	defer ts.Close()
	c := New(Config{BaseURL: ts.URL})
	if _, err := c.Run(context.Background(), serve.RunRequest{Machine: "sx4-32", Benchmarks: []string{"COPY"}}); err != nil {
		t.Fatalf("run: %v", err)
	}
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.RunQueries != 1 || st.RunsExecuted != 1 {
		t.Fatalf("stats books: %+v", st)
	}
}

// TestBackoffPinned pins the exact jitter Backoff draws: nine attempts
// for each of 20 seeds, folded into one FNV-1a digest.
func TestBackoffPinned(t *testing.T) {
	h := fnv.New64a()
	var buf [8]byte
	for seed := uint64(1); seed <= 20; seed++ {
		for attempt := 1; attempt <= 9; attempt++ {
			binary.LittleEndian.PutUint64(buf[:], uint64(Backoff(seed, attempt, 100*time.Millisecond, 5*time.Second)))
			h.Write(buf[:])
		}
	}
	if got, want := h.Sum64(), uint64(0xeae7ac3a59c7f9df); got != want {
		t.Errorf("backoff digest = %#x, want %#x", got, want)
	}
}
