package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
)

// corrupting wraps the daemon and flips one byte of the nth /v1/run
// body it answers.
func corrupting(n int64) func() http.Handler {
	return func() http.Handler {
		h := sx4d()
		var count atomic.Int64
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			body := rec.Body.Bytes()
			if r.URL.Path == "/v1/run" && count.Add(1) == n {
				body = bytes.Clone(body)
				body[len(body)/2] ^= 0x20
			}
			for k, v := range rec.Header() {
				w.Header()[k] = v
			}
			w.WriteHeader(rec.Code)
			w.Write(body)
		})
	}
}

func testRun(t *testing.T, workload string, handler func() http.Handler) result {
	t.Helper()
	p, err := newPlan(workload, 4, 0.2, 2)
	if err != nil {
		t.Fatal(err)
	}
	o := opts{workload: workload, seed: 4, seconds: 0.2, nproc: 2, root: "..", handler: handler}
	res, err := runWorkload(p, o, false, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunHotPasses(t *testing.T) {
	res := testRun(t, "run-hot", sx4d)
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("clean run: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	for _, m := range []string{"latency_p50_ms", "latency_p99_ms", "throughput_rps", "heap_mb", "setup_s", "runall_ms", "runall_serial_ms"} {
		if v, ok := res.Metrics[m]; !ok || v.Value <= 0 {
			t.Errorf("metric %s = %v", m, v)
		}
	}
}

// TestCorruptedBodyFailsRun: one flipped byte in one timed response
// makes the run incorrect and counts as a failed request.
func TestCorruptedBodyFailsRun(t *testing.T) {
	res := testRun(t, "run-hot", corrupting(int64(hotKeys+1+50)))
	if res.Correct || res.Failed == 0 {
		t.Fatalf("corrupted run: correct=%v failed=%d", res.Correct, res.Failed)
	}
}

// TestCorruptedSetupFailsGolden: a corrupted canonical body in the
// set-up, which every later answer then matches, still fails the run
// through the serve golden.
func TestCorruptedSetupFailsGolden(t *testing.T) {
	res := testRun(t, "run-hot", corrupting(1))
	if res.Correct {
		t.Fatal("a corrupted canonical body passed the gate")
	}
}
