package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	_ "sx4bench/internal/machine" // register the modeled machines
)

// fakeClock is a deterministic time source: every reading advances by
// one millisecond, so latency counters are exact and tests never touch
// the wall clock.
func fakeClock() func() time.Time {
	var mu sync.Mutex
	t := time.Unix(0, 0)
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		t = t.Add(time.Millisecond)
		return t
	}
}

func post(t *testing.T, s *Server, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", path, strings.NewReader(body))
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, req)
	return rr
}

// TestHandlerErrors is the conformance table for the failure paths:
// every malformed, oversized, misaddressed or unanswerable request
// must map to its documented status and an {"error": ...} JSON body.
func TestHandlerErrors(t *testing.T) {
	cases := []struct {
		name   string
		method string
		path   string
		body   string
		code   int
	}{
		{"malformed json", "POST", "/v1/run", "{", http.StatusBadRequest},
		{"not an object", "POST", "/v1/run", "[1,2]", http.StatusBadRequest},
		{"unknown field", "POST", "/v1/run", `{"machine":"ymp","bogus":1}`, http.StatusBadRequest},
		{"trailing content", "POST", "/v1/run", `{"machine":"ymp"} {}`, http.StatusBadRequest},
		{"trailing bracket", "POST", "/v1/run", `{"machine":"sx4-32"}]`, http.StatusBadRequest},
		{"trailing brackets", "POST", "/v1/run", `{"machine":"sx4-32"} ]]]`, http.StatusBadRequest},
		{"trailing brace", "POST", "/v1/run", `{"machine":"sx4-32"}}`, http.StatusBadRequest},
		// A sweep answers 200 and fails the bad line alone, as an error line.
		{"trailing bracket in a sweep line", "POST", "/v1/sweep", `{"machine":"sx4-32"}]`, http.StatusOK},
		{"empty machine", "POST", "/v1/run", `{"machine":"  "}`, http.StatusBadRequest},
		{"overflowing deadline", "POST", "/v1/run", `{"machine":"ymp","deadline_seconds":1e999}`, http.StatusBadRequest},
		{"negative deadline", "POST", "/v1/run", `{"machine":"ymp","deadline_seconds":-1}`, http.StatusBadRequest},
		{"negative cpus", "POST", "/v1/run", `{"machine":"ymp","cpus":-4}`, http.StatusBadRequest},
		{"huge workers", "POST", "/v1/run", `{"machine":"ymp","workers":99999}`, http.StatusBadRequest},
		{"unknown benchmark", "POST", "/v1/run", `{"machine":"ymp","benchmarks":["FROBNICATE"]}`, http.StatusBadRequest},
		{"all plus extras", "POST", "/v1/run", `{"machine":"ymp","benchmarks":["all","COPY"]}`, http.StatusBadRequest},
		{"unknown machine", "POST", "/v1/run", `{"machine":"vax-11"}`, http.StatusNotFound},
		{"GET on run", "GET", "/v1/run", "", http.StatusMethodNotAllowed},
		{"POST on stats", "POST", "/v1/stats", "", http.StatusMethodNotAllowed},
		{"unknown path", "GET", "/v1/nope", "", http.StatusNotFound},
	}
	s := New(Config{Now: fakeClock()})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body))
			rr := httptest.NewRecorder()
			s.ServeHTTP(rr, req)
			if rr.Code != tc.code {
				t.Fatalf("status = %d, want %d; body %q", rr.Code, tc.code, rr.Body.String())
			}
			if tc.code == http.StatusMethodNotAllowed || (tc.code == http.StatusNotFound && tc.path == "/v1/nope") {
				return // the mux renders these, not our JSON shape
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(rr.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("error body %q is not the {\"error\": ...} shape (%v)", rr.Body.String(), err)
			}
		})
	}
}

// TestOversizedBody pins the 413 path: a body past MaxBodyBytes fails
// with RequestEntityTooLarge, never a partial parse.
func TestOversizedBody(t *testing.T) {
	s := New(Config{MaxBodyBytes: 64, Now: fakeClock()})
	body := `{"machine":"ymp","benchmarks":[` + strings.Repeat(`"COPY",`, 40) + `"COPY"]}`
	rr := post(t, s, "/v1/run", body)
	if rr.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413; body %q", rr.Code, rr.Body.String())
	}
}

// TestCanceledContext pins the 503 path: a query whose context is
// already dead is abandoned, cached or not.
func TestCanceledContext(t *testing.T) {
	s := New(Config{Now: fakeClock()})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("POST", "/v1/run",
		strings.NewReader(`{"machine":"sparc20","benchmarks":["COPY"]}`)).WithContext(ctx)
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, req)
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503; body %q", rr.Code, rr.Body.String())
	}
}

// TestRunDeterminismAndCache is the core conformance property: two
// identical POST /v1/run queries return byte-identical bodies, the
// second from the cache; a worker-count variation is the same query
// and hits too.
func TestRunDeterminismAndCache(t *testing.T) {
	s := New(Config{Now: fakeClock()})
	const q = `{"machine":"sparc20","benchmarks":["COPY","RFFT"]}`
	first := post(t, s, "/v1/run", q)
	if first.Code != http.StatusOK {
		t.Fatalf("first query: status %d, body %q", first.Code, first.Body.String())
	}
	if state := first.Header().Get("X-Sx4d-Cache"); state != "miss" {
		t.Fatalf("first query cache state = %q, want miss", state)
	}
	second := post(t, s, "/v1/run", q)
	if second.Code != http.StatusOK {
		t.Fatalf("second query: status %d", second.Code)
	}
	if state := second.Header().Get("X-Sx4d-Cache"); state != "hit" {
		t.Fatalf("second query cache state = %q, want hit", state)
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Fatalf("identical queries returned different bodies:\n%s\n%s", first.Body, second.Body)
	}
	// Workers shapes the evaluation schedule, never the bytes: a
	// different worker count is the same content-addressed query.
	reworked := post(t, s, "/v1/run", `{"machine":"sparc20","benchmarks":["COPY","RFFT"],"workers":8}`)
	if state := reworked.Header().Get("X-Sx4d-Cache"); state != "hit" {
		t.Fatalf("workers variant cache state = %q, want hit", state)
	}
	if !bytes.Equal(first.Body.Bytes(), reworked.Body.Bytes()) {
		t.Fatal("workers variant returned different bytes")
	}
	var resp RunResponse
	if err := json.Unmarshal(first.Body.Bytes(), &resp); err != nil {
		t.Fatalf("response does not decode: %v", err)
	}
	if len(resp.Results) != 2 || resp.Results[0].Name != "COPY" || resp.Results[1].Name != "RFFT" {
		t.Fatalf("results = %+v, want COPY then RFFT in request order", resp.Results)
	}
}

// TestFaultFreeRunIgnoresResilienceKnobs pins that a fault-free
// query's deadline and attempt cap, which change no response byte,
// share its cache entry.
func TestFaultFreeRunIgnoresResilienceKnobs(t *testing.T) {
	s := New(Config{Now: fakeClock()})
	first := post(t, s, "/v1/run", `{"machine":"sx4-32","benchmarks":["RADABS"]}`)
	if first.Code != http.StatusOK {
		t.Fatalf("status %d, body %q", first.Code, first.Body.String())
	}
	for _, q := range []string{
		`{"machine":"sx4-32","benchmarks":["RADABS"],"deadline_seconds":0.001}`,
		`{"machine":"sx4-32","benchmarks":["RADABS"],"max_attempts":3}`,
	} {
		rr := post(t, s, "/v1/run", q)
		if state := rr.Header().Get("X-Sx4d-Cache"); state != "hit" {
			t.Errorf("%s: cache state = %q, want hit", q, state)
		}
		if !bytes.Equal(rr.Body.Bytes(), first.Body.Bytes()) {
			t.Errorf("%s: body differs from the plain query's", q)
		}
	}
}

// TestZeroDeadlineSignSharesEntry pins that a −0 deadline, which ncar
// reads as no deadline just as it reads 0, is the same query as the
// omitted and the +0 deadline: one key and one cache entry.
func TestZeroDeadlineSignSharesEntry(t *testing.T) {
	s := New(Config{Now: fakeClock()})
	const q = `{"machine":"ymp","benchmarks":["COPY"],"fault_seed":1`
	first := post(t, s, "/v1/run", q+"}")
	if first.Code != http.StatusOK {
		t.Fatalf("status %d, body %q", first.Code, first.Body.String())
	}
	for _, deadline := range []string{"0", "-0"} {
		rr := post(t, s, "/v1/run", q+`,"deadline_seconds":`+deadline+"}")
		if state := rr.Header().Get("X-Sx4d-Cache"); state != "hit" {
			t.Errorf("deadline %s: cache state = %q, want hit", deadline, state)
		}
		if !bytes.Equal(rr.Body.Bytes(), first.Body.Bytes()) {
			t.Errorf("deadline %s: body differs from the query without one", deadline)
		}
	}
	if n := s.cache.Stats().Entries; n != 1 {
		t.Errorf("%d cache entries, want 1", n)
	}
}

// TestFaultedRun pins the resilient path: a seeded query reports
// attempt accounting in its metrics and is just as cacheable.
func TestFaultedRun(t *testing.T) {
	s := New(Config{Now: fakeClock()})
	const q = `{"machine":"sx4-1","benchmarks":["RADABS"],"fault_seed":7,"deadline_seconds":900}`
	first := post(t, s, "/v1/run", q)
	if first.Code != http.StatusOK {
		t.Fatalf("status %d, body %q", first.Code, first.Body.String())
	}
	var resp RunResponse
	if err := json.Unmarshal(first.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.FaultSeed != 7 || len(resp.Results) != 1 {
		t.Fatalf("resp = %+v", resp)
	}
	m := resp.Results[0].Metrics
	if m["attempts"] < 1 || m["finished_at_s"] <= 0 {
		t.Fatalf("faulted result lacks attempt accounting: %+v", m)
	}
	if state := post(t, s, "/v1/run", q).Header().Get("X-Sx4d-Cache"); state != "hit" {
		t.Fatalf("repeat faulted query cache state = %q, want hit", state)
	}
}

// TestSweep pins the NDJSON contract: one answer line per input line in
// input order, malformed lines failing alone, duplicates served from
// cache, blank lines skipped.
func TestSweep(t *testing.T) {
	s := New(Config{Now: fakeClock()})
	body := `{"machine":"sparc20","benchmarks":["COPY"]}
{"machine":"sparc20","benchmarks":["FROBNICATE"]}

{"machine":"sparc20","benchmarks":["COPY"],"workers":4}
`
	rr := post(t, s, "/v1/sweep", body)
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	lines := strings.Split(strings.TrimRight(rr.Body.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d answer lines, want 3:\n%s", len(lines), rr.Body.String())
	}
	if !strings.Contains(lines[1], `"error"`) {
		t.Fatalf("line 2 should be the error line: %q", lines[1])
	}
	if lines[0] != lines[2] {
		t.Fatalf("duplicate query answered differently:\n%s\n%s", lines[0], lines[2])
	}
	var st Stats
	statsRR := httptest.NewRecorder()
	s.ServeHTTP(statsRR, httptest.NewRequest("GET", "/v1/stats", nil))
	if err := json.Unmarshal(statsRR.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.SweepLines != 3 {
		t.Fatalf("sweep_lines = %d, want 3 (blank line skipped)", st.SweepLines)
	}
	if st.RunsExecuted != 1 || st.CacheHits != 1 || st.Errors != 1 {
		t.Fatalf("stats = %+v, want 1 executed, 1 hit, 1 error", st)
	}
}

// TestSweepLargeBodyOverHTTP streams a sweep whose body is far larger
// than the connection buffers over real HTTP/1.1: answers flush while
// the body is still arriving, and every line must still be read and
// answered.
func TestSweepLargeBodyOverHTTP(t *testing.T) {
	ts := httptest.NewServer(New(Config{Now: fakeClock()}))
	defer ts.Close()
	var body strings.Builder
	const lines = 400
	for i := 0; i < lines; i++ {
		fmt.Fprintf(&body, "{\"machine\":\"sx4-32\",\"benchmarks\":[\"PARANOIA\"],\"cpus\":%d}\n", 1+i%32)
	}
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/x-ndjson", strings.NewReader(body.String()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	answers := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(answers) != lines {
		t.Fatalf("got %d answer lines for %d queries", len(answers), lines)
	}
	for i, a := range answers {
		if strings.Contains(a, `"error"`) {
			t.Fatalf("line %d: %s", i, a)
		}
	}
}

// TestSweepAnswersBeforeNextLine pins the interactive sweep over real
// HTTP: a client that sends line k+1 only after reading answer k must
// get answer k while the daemon waits for the next line, so answers
// are flushed before the daemon reads more of the body, not only when
// the body ends.
func TestSweepAnswersBeforeNextLine(t *testing.T) {
	ts := httptest.NewServer(New(Config{Now: fakeClock()}))
	defer ts.Close()
	pr, pw := io.Pipe()
	// Closing the body first lets the handler, and so ts.Close, finish
	// when the test fails midway.
	defer pw.Close()
	req, err := http.NewRequest("POST", ts.URL+"/v1/sweep", pr)
	if err != nil {
		t.Fatal(err)
	}
	type reply struct {
		resp *http.Response
		err  error
	}
	replies := make(chan reply, 1)
	go func() {
		resp, err := ts.Client().Do(req)
		replies <- reply{resp, err}
	}()
	// await runs step on its own goroutine and fails the test unless it
	// returns within the timeout.
	await := func(what string, step func() error) {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- step() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: no progress in 10 s", what)
		}
	}
	var answers *bufio.Reader
	for k, member := range []string{"COPY", "RFFT", "FROBNICATE", "COPY"} {
		line := fmt.Sprintf("{\"machine\":\"sparc20\",\"benchmarks\":[%q]}\n", member)
		await(fmt.Sprintf("writing line %d", k), func() error {
			_, err := io.WriteString(pw, line)
			return err
		})
		if k == 0 {
			var r reply
			await("response headers after line 0", func() error {
				r = <-replies
				return r.err
			})
			defer r.resp.Body.Close()
			answers = bufio.NewReader(r.resp.Body)
		}
		var answer string
		await(fmt.Sprintf("answer %d before line %d is sent", k, k+1), func() error {
			var err error
			answer, err = answers.ReadString('\n')
			return err
		})
		if isError := strings.Contains(answer, `"error"`); isError != (member == "FROBNICATE") {
			t.Fatalf("answer %d for %s: %s", k, member, answer)
		}
	}
	pw.Close()
	if rest, err := io.ReadAll(answers); err != nil || len(rest) != 0 {
		t.Fatalf("after the last answer: %q, %v", rest, err)
	}
}

// TestSweepLineLongerThanStartBuffer pins the sweep scanner's growth
// path: a line far longer than the scanner's 4 KiB start buffer is read
// whole and answered in its place. A line the body limit cuts gets no
// answer, whether the cut falls mid-JSON or in its trailing white
// space: the sweep answers the lines before it and ends in the body
// limit's error line, as /v1/run answers no partial body.
func TestSweepLineLongerThanStartBuffer(t *testing.T) {
	s := New(Config{Now: fakeClock(), MaxBodyBytes: 256 << 10})
	queries := []string{
		`{"machine":"sparc20","benchmarks":["COPY"]}`,
		`{"machine":"sparc20",` + strings.Repeat(" \t", 50<<10) + `"benchmarks":["RFFT"]}`,
		`{"machine":"sparc20","benchmarks":["IA"]}`,
	}
	var want []string
	for _, q := range queries {
		rr := post(t, s, "/v1/run", q)
		if rr.Code != http.StatusOK {
			t.Fatalf("status %d, body %q", rr.Code, rr.Body.String())
		}
		want = append(want, rr.Body.String())
	}
	rr := post(t, s, "/v1/sweep", strings.Join(queries, "\n")+"\n")
	if got := strings.SplitAfter(rr.Body.String(), "\n"); len(got) != 4 || got[3] != "" || !slices.Equal(got[:3], want) {
		t.Fatalf("sweep with a %d-byte line answered\n%s", len(queries[1]), rr.Body.String())
	}

	limit := string(errorLine(&http.MaxBytesError{Limit: 256 << 10}))
	for _, tooLong := range []string{
		`{"machine":"sparc20",` + strings.Repeat(" ", 256<<10) + `"benchmarks":["RFFT"]}`,
		`{"machine":"sparc20","benchmarks":["RFFT"]}` + strings.Repeat(" ", 256<<10),
	} {
		rr = post(t, s, "/v1/sweep", queries[0]+"\n"+tooLong+"\n"+queries[2]+"\n")
		if got := strings.SplitAfter(rr.Body.String(), "\n"); len(got) != 3 || got[0] != want[0] || got[1] != limit || got[2] != "" {
			t.Fatalf("sweep with a line past MaxBodyBytes answered\n%.300s", rr.Body.String())
		}
	}
}

// TestMachines pins the registry listing: every registered machine, in
// registration order, with its spec headline and configuration
// fingerprint.
func TestMachines(t *testing.T) {
	s := New(Config{Now: fakeClock()})
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, httptest.NewRequest("GET", "/v1/machines", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d", rr.Code)
	}
	var resp struct {
		Machines []MachineInfo `json:"machines"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Machines) < 7 {
		t.Fatalf("listed %d machines, want the full registry (>= 7)", len(resp.Machines))
	}
	var flagship *MachineInfo
	for i := range resp.Machines {
		m := &resp.Machines[i]
		if m.Fingerprint == "" || m.CPUs <= 0 || m.Title == "" {
			t.Fatalf("incomplete machine entry %+v", m)
		}
		if m.Name == "sx4-32" {
			flagship = m
		}
	}
	if flagship == nil || flagship.CPUs != 32 || !flagship.HasDisk {
		t.Fatalf("flagship entry = %+v, want 32 CPUs with a disk subsystem", flagship)
	}
}

// TestStatsClock pins the injected clock: with the fake millisecond
// clock, each instrumented request adds exactly 1ms of latency.
func TestStatsClock(t *testing.T) {
	s := New(Config{Now: fakeClock()})
	for i := 0; i < 3; i++ {
		rr := httptest.NewRecorder()
		s.ServeHTTP(rr, httptest.NewRequest("GET", "/healthz", nil))
		if rr.Code != http.StatusOK {
			t.Fatalf("healthz status %d", rr.Code)
		}
	}
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, httptest.NewRequest("GET", "/v1/stats", nil))
	var st Stats
	if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Requests != 4 {
		t.Fatalf("requests = %d, want 4", st.Requests)
	}
	// The stats request reads the clock after its own handler ran, so
	// only the three healthz requests have landed in the counter.
	if st.LatencyTotalMS != 3 {
		t.Fatalf("latency_total_ms = %v, want exactly 3 under the fake clock", st.LatencyTotalMS)
	}
}

// TestRenderCanonicalMatchesHandler pins the golden plumbing: the
// artifact RenderCanonical writes is the exact body a live daemon
// returns for the canonical request.
func TestRenderCanonicalMatchesHandler(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite flagship run")
	}
	var artifact bytes.Buffer
	if err := RenderCanonical(&artifact); err != nil {
		t.Fatal(err)
	}
	s := New(Config{Now: fakeClock()})
	q, err := json.Marshal(CanonicalRequest())
	if err != nil {
		t.Fatal(err)
	}
	rr := post(t, s, "/v1/run", string(q))
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d", rr.Code)
	}
	if !bytes.Equal(artifact.Bytes(), rr.Body.Bytes()) {
		t.Fatal("RenderCanonical and the live handler disagree")
	}
}
