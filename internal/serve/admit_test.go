package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// held occupies n class-c slots directly on the admitter, returning a
// release-all function. Tests use it to simulate a saturated engine
// without depending on simulation wall time.
func held(t *testing.T, a *admitter, c admitClass, n int) func() {
	t.Helper()
	var rels []func()
	for i := 0; i < n; i++ {
		rel, err := a.acquire(context.Background(), c)
		if err != nil {
			t.Fatalf("holding slot %d: %v", i, err)
		}
		rels = append(rels, rel)
	}
	return func() {
		for _, rel := range rels {
			rel()
		}
	}
}

func TestAdmitterFastPath(t *testing.T) {
	a := newAdmitter(2, 4, [numClasses]int{2, 1, 1})
	rel, err := a.acquire(context.Background(), classRun)
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	if got := a.executing(); got != 1 {
		t.Fatalf("executing = %d, want 1", got)
	}
	rel()
	if got := a.executing(); got != 0 {
		t.Fatalf("executing after release = %d, want 0", got)
	}
}

func TestAdmitterShedsOnFullQueue(t *testing.T) {
	a := newAdmitter(1, 1, [numClasses]int{1, 1, 1})
	release := held(t, a, classRun, 1)
	defer release()

	// One waiter fits in the depth-1 queue...
	queued := make(chan error, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		_, err := a.acquire(ctx, classRun)
		if err == nil {
			queued <- fmt.Errorf("queued waiter admitted while slot held")
			return
		}
		queued <- nil
	}()
	waitFor(t, func() bool { return a.queued() == 1 })

	// ...so the next arrival is shed on the spot with a Retry-After.
	_, err := a.acquire(context.Background(), classRun)
	if err == nil {
		t.Fatalf("expected shed, got admission")
	}
	if err.admitOutcome != outcomeShed {
		t.Fatalf("outcome = %d, want outcomeShed", err.admitOutcome)
	}
	if err.retryAfter < 1 {
		t.Fatalf("shed error retryAfter = %d, want >= 1", err.retryAfter)
	}
	cancel()
	if e := <-queued; e != nil {
		t.Fatal(e)
	}
}

func TestAdmitterCancelWhileQueued(t *testing.T) {
	a := newAdmitter(1, 4, [numClasses]int{1, 1, 1})
	release := held(t, a, classRun, 1)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan *httpError, 1)
	go func() {
		_, err := a.acquire(ctx, classRun)
		done <- err
	}()
	waitFor(t, func() bool { return a.queued() == 1 })
	cancel()
	err := <-done
	if err == nil {
		t.Fatalf("expected cancellation error, got admission")
	}
	if err.admitOutcome != outcomeCancel {
		t.Fatalf("outcome = %d, want outcomeCancel", err.admitOutcome)
	}
	// The abandoned waiter must not linger in the queue gauge or absorb
	// a grant.
	if got := a.queued(); got != 0 {
		t.Fatalf("queued after cancel = %d, want 0", got)
	}
	release()
	if got := a.executing(); got != 0 {
		t.Fatalf("executing after release = %d, want 0 (grant leaked to abandoned waiter?)", got)
	}
}

func TestAdmitterDeadlineWhileQueued(t *testing.T) {
	a := newAdmitter(1, 4, [numClasses]int{1, 1, 1})
	release := held(t, a, classRun, 1)
	defer release()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, err := a.acquire(ctx, classRun)
	if err == nil {
		t.Fatalf("expected queue-wait timeout, got admission")
	}
	if err.admitOutcome != outcomeTimeout {
		t.Fatalf("outcome = %d, want outcomeTimeout", err.admitOutcome)
	}
	if err.retryAfter < 1 {
		t.Fatalf("timeout error retryAfter = %d, want >= 1", err.retryAfter)
	}
}

// TestAdmitterClassPriority pins the load-shedding order: when a slot
// frees with both a run waiter and a sweep waiter queued, the run
// waiter is granted first regardless of arrival order — the invariant
// that keeps the cheap interactive endpoint alive under overload.
func TestAdmitterClassPriority(t *testing.T) {
	// Budgets 2/1/1 under a global cap of 2: sweep+capacity saturate the
	// engine while the run class still has nominal budget.
	a := newAdmitter(2, 4, [numClasses]int{2, 1, 1})
	relSweep := held(t, a, classSweep, 1)
	relCap := held(t, a, classCapacity, 1)

	grants := make(chan admitClass, 2)
	spawn := func(c admitClass) {
		go func() {
			rel, err := a.acquire(context.Background(), c)
			if err != nil {
				t.Errorf("%s acquire: %v", c, err)
				return
			}
			grants <- c
			rel()
		}()
	}
	// Sweep queues first, run second. Priority must still serve run first.
	spawn(classSweep)
	waitFor(t, func() bool { return a.queued() == 1 })
	spawn(classRun)
	waitFor(t, func() bool { return a.queued() == 2 })

	relCap()
	if first := <-grants; first != classRun {
		t.Fatalf("first grant went to %s, want run", first)
	}
	relSweep()
	if second := <-grants; second != classSweep {
		t.Fatalf("second grant went to %s, want sweep", second)
	}
}

// waitFor polls a condition with a generous deadline; admission tests
// only need ordering, never timing.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("condition never held")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOverloadShedsWithRetryAfter drives the HTTP surface: with the
// engine saturated and the queue full, a fresh /v1/run query is shed
// as 503 and the response carries Retry-After — every 503 must tell
// the client when to come back.
func TestOverloadShedsWithRetryAfter(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, QueueDepth: 1, Now: fakeClock()})
	release := held(t, s.admit, classRun, 1)
	defer release()

	// Fill the queue with one real waiter.
	ctx, cancel := context.WithCancel(context.Background())
	queued := make(chan struct{})
	go func() {
		defer close(queued)
		s.admit.acquire(ctx, classRun)
	}()
	waitFor(t, func() bool { return s.admit.queued() == 1 })

	rr := post(t, s, "/v1/run", `{"machine": "sx4-32", "benchmarks": ["COPY"]}`)
	if rr.Code != 503 {
		t.Fatalf("status = %d, want 503; body: %s", rr.Code, rr.Body.String())
	}
	if ra := rr.Header().Get("Retry-After"); ra == "" {
		t.Fatalf("503 without Retry-After header; body: %s", rr.Body.String())
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &e); err != nil || e.Error == "" {
		t.Fatalf("503 body is not the error shape: %s", rr.Body.String())
	}
	cancel()
	<-queued

	// The books: one shed, visible on /v1/stats.
	st := statsSnapshot(t, s)
	if st.Shed != 1 {
		t.Fatalf("shed = %d, want 1", st.Shed)
	}
	if st.AdmitRequests != st.Admitted+st.Shed+st.QueueTimeouts+st.QueueCancelled {
		t.Fatalf("admission books don't balance: %+v", st)
	}
}

// TestQueueWaitTimeout pins the queue-wait deadline: a query that waits
// past Config.QueueWait is timed out with 503 + Retry-After and counted
// as a queue timeout, not a shed.
func TestQueueWaitTimeout(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, QueueWait: 5 * time.Millisecond, Now: fakeClock()})
	release := held(t, s.admit, classRun, 1)
	defer release()

	rr := post(t, s, "/v1/run", `{"machine": "sx4-32", "benchmarks": ["COPY"]}`)
	if rr.Code != 503 {
		t.Fatalf("status = %d, want 503; body: %s", rr.Code, rr.Body.String())
	}
	if ra := rr.Header().Get("Retry-After"); ra == "" {
		t.Fatalf("queue timeout 503 without Retry-After")
	}
	st := statsSnapshot(t, s)
	if st.QueueTimeouts != 1 {
		t.Fatalf("queue_timeouts = %d, want 1: %+v", st.QueueTimeouts, st)
	}
}

// TestCacheServesUnderOverload pins the most important overload
// property: admission only gates executions, so a saturated engine
// still answers cached queries instantly.
func TestCacheServesUnderOverload(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, QueueDepth: 1, Now: fakeClock()})
	const body = `{"machine": "sx4-32", "benchmarks": ["COPY"]}`
	if rr := post(t, s, "/v1/run", body); rr.Code != 200 {
		t.Fatalf("warm-up failed: %d %s", rr.Code, rr.Body.String())
	}

	release := held(t, s.admit, classRun, 1)
	defer release()
	rr := post(t, s, "/v1/run", body)
	if rr.Code != 200 {
		t.Fatalf("cached query under overload: %d, want 200", rr.Code)
	}
	if got := rr.Header().Get("X-Sx4d-Cache"); got != "hit" {
		t.Fatalf("X-Sx4d-Cache = %q, want hit", got)
	}
}

// TestRunOutlivesSweepUnderOverload is the acceptance bar from the
// issue, at the HTTP layer: saturate the engine, fire one /v1/run and
// one /v1/sweep execution that both must queue, free one slot — the
// run query completes, the sweep line is still waiting.
func TestRunOutlivesSweepUnderOverload(t *testing.T) {
	// Cap 2 derives sweep and capacity budgets of 1: one held sweep
	// slot plus one held capacity slot saturate the engine.
	s := New(Config{MaxConcurrent: 2, Now: fakeClock()})
	relSweep := held(t, s.admit, classSweep, 1)
	relCap := held(t, s.admit, classCapacity, 1)
	sweepReleased := false
	defer func() {
		if !sweepReleased {
			relSweep()
		}
	}()

	sweepDone := make(chan *httptest.ResponseRecorder, 1)
	runDone := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		sweepDone <- post(t, s, "/v1/sweep", `{"machine": "sx4-32", "benchmarks": ["IA"]}`)
	}()
	waitFor(t, func() bool { return s.admit.queued() == 1 })
	go func() {
		runDone <- post(t, s, "/v1/run", `{"machine": "sx4-32", "benchmarks": ["COPY"]}`)
	}()
	waitFor(t, func() bool { return s.admit.queued() == 2 })

	relCap()
	rr := <-runDone
	if rr.Code != 200 {
		t.Fatalf("run under overload: %d, want 200; body: %s", rr.Code, rr.Body.String())
	}
	// The sweep line only completes once the sweep-class slot frees.
	select {
	case <-sweepDone:
		t.Fatalf("sweep completed before its class had budget")
	default:
	}
	relSweep()
	sweepReleased = true
	srr := <-sweepDone
	if srr.Code != 200 {
		t.Fatalf("sweep after release: %d; body: %s", srr.Code, srr.Body.String())
	}
}

func statsSnapshot(t *testing.T, s *Server) Stats {
	t.Helper()
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, httptest.NewRequest("GET", "/v1/stats", nil))
	if rr.Code != 200 {
		t.Fatalf("stats: %d", rr.Code)
	}
	var st Stats
	if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
		t.Fatalf("decoding stats: %v", err)
	}
	return st
}

// TestStatsGauges pins the queue-depth and in-flight gauges on
// /v1/stats.
func TestStatsGauges(t *testing.T) {
	s := New(Config{MaxConcurrent: 4, Now: fakeClock()})
	release := held(t, s.admit, classRun, 2)
	st := statsSnapshot(t, s)
	if st.InFlight != 2 {
		t.Fatalf("in_flight = %d, want 2", st.InFlight)
	}
	if st.QueueDepth != 0 {
		t.Fatalf("queue_depth = %d, want 0", st.QueueDepth)
	}
	release()
	st = statsSnapshot(t, s)
	if st.InFlight != 0 {
		t.Fatalf("in_flight after release = %d, want 0", st.InFlight)
	}
}

// TestSweepClientDisconnect pins the disconnected-sweep fix: when the
// request context dies mid-stream, the producer stops instead of
// simulating lines nobody will read, and the abort is counted.
func TestSweepClientDisconnect(t *testing.T) {
	s := New(Config{Now: fakeClock()})
	lines := strings.Repeat(`{"machine": "sx4-32", "benchmarks": ["COPY"]}`+"\n", 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the client hung up before the first line
	req := httptest.NewRequest("POST", "/v1/sweep", strings.NewReader(lines)).WithContext(ctx)
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, req)
	if got := rr.Body.Len(); got != 0 {
		t.Fatalf("disconnected sweep still produced %d bytes: %s", got, rr.Body.String())
	}
	st := statsSnapshot(t, s)
	if st.SweepAborts == 0 {
		t.Fatalf("sweep abort not counted: %+v", st)
	}
	if st.SweepLines != 0 {
		t.Fatalf("disconnected sweep consumed %d lines, want 0", st.SweepLines)
	}
}
