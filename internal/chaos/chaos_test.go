package chaos

import (
	"encoding/binary"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestDecideDeterministic pins the plan contract: decision i is a pure
// function of the seed, independent of every other decision and of
// when it is drawn.
func TestDecideDeterministic(t *testing.T) {
	a := NewPlan(42)
	b := NewPlan(42)
	for i := uint64(0); i < 4096; i++ {
		if da, db := a.Decide(i), b.Decide(i); da != db {
			t.Fatalf("decision %d differs across identical plans: %+v vs %+v", i, da, db)
		}
	}
	// Drawing out of order changes nothing.
	if d := a.Decide(7); d != b.Decide(7) {
		t.Fatalf("out-of-order draw diverged: %+v", d)
	}
	// Different seeds produce different schedules (overwhelmingly).
	c := NewPlan(43)
	same := 0
	for i := uint64(0); i < 4096; i++ {
		if a.Decide(i) == c.Decide(i) {
			same++
		}
	}
	if same == 4096 {
		t.Fatalf("seeds 42 and 43 produced identical schedules")
	}
}

// TestDecideRespectsRateAndKinds pins the knobs: Rate 0 disturbs
// nothing, Rate 1 disturbs everything, a Kinds subset draws only from
// that subset, and injected latency never exceeds MaxLatency.
func TestDecideRespectsRateAndKinds(t *testing.T) {
	quiet := &Plan{Seed: 1, Rate: 0}
	for i := uint64(0); i < 512; i++ {
		if d := quiet.Decide(i); d.Kind != None {
			t.Fatalf("rate-0 plan disturbed request %d: %+v", i, d)
		}
	}
	loud := &Plan{Seed: 1, Rate: 1, MaxLatency: 3 * time.Millisecond, Kinds: []Kind{Latency}}
	for i := uint64(0); i < 512; i++ {
		d := loud.Decide(i)
		if d.Kind != Latency {
			t.Fatalf("latency-only plan drew %v at %d", d.Kind, i)
		}
		if d.Latency < 0 || d.Latency >= 3*time.Millisecond {
			t.Fatalf("latency %v out of [0, 3ms)", d.Latency)
		}
	}
	// The unrestricted full-rate plan eventually draws every kind.
	all := &Plan{Seed: 9, Rate: 1, MaxLatency: time.Millisecond}
	seen := map[Kind]bool{}
	for i := uint64(0); i < 512; i++ {
		seen[all.Decide(i).Kind] = true
	}
	for k := Latency; k < numKinds; k++ {
		if !seen[k] {
			t.Fatalf("kind %v never drawn in 512 trials", k)
		}
	}
}

// echoHandler reads the whole body and echoes it, reporting whether
// the request context was still alive.
func echoHandler(t *testing.T) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Errorf("reading body: %v", err)
		}
		if r.Context().Err() != nil {
			w.WriteHeader(http.StatusServiceUnavailable)
			io.WriteString(w, "context dead")
			return
		}
		w.Write(body)
	})
}

// middlewareFor builds a single-kind full-rate plan and serves one
// request through it, returning the response.
func middlewareFor(t *testing.T, k Kind, body string) *httptest.ResponseRecorder {
	t.Helper()
	var slept time.Duration
	p := &Plan{Seed: 5, Rate: 1, MaxLatency: 2 * time.Millisecond, Kinds: []Kind{k},
		Sleep: func(d time.Duration) { slept = d }}
	h := p.Middleware(echoHandler(t))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("POST", "/", strings.NewReader(body)))
	if k == Latency && slept <= 0 {
		t.Fatalf("latency injection never slept")
	}
	return rr
}

func TestMiddlewareKinds(t *testing.T) {
	const body = `{"machine": "sx4-32", "benchmarks": ["COPY", "CCM2"]}`

	rr := middlewareFor(t, Latency, body)
	if rr.Code != 200 || rr.Body.String() != body {
		t.Fatalf("latency: %d %q", rr.Code, rr.Body.String())
	}
	if got := rr.Header().Get(Header); got != "latency" {
		t.Fatalf("%s = %q, want latency", Header, got)
	}

	rr = middlewareFor(t, SlowBody, body)
	if rr.Code != 200 || rr.Body.String() != body {
		t.Fatalf("slowbody did not deliver the full body: %d %q", rr.Code, rr.Body.String())
	}

	rr = middlewareFor(t, CancelContext, body)
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("cancel: handler saw a live context (%d %q)", rr.Code, rr.Body.String())
	}

	rr = middlewareFor(t, InjectError, body)
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("error injection: %d", rr.Code)
	}
	if rr.Header().Get("Retry-After") == "" {
		t.Fatalf("injected 503 without Retry-After")
	}
	if got := rr.Header().Get(Header); got != "error" {
		t.Fatalf("%s = %q, want error", Header, got)
	}
}

// TestMiddlewareReplaysSchedule pins soak reproducibility: two
// middlewares over the same seed disturb the same request ordinals the
// same way.
func TestMiddlewareReplaysSchedule(t *testing.T) {
	serveAll := func(p *Plan) []string {
		h := p.Middleware(echoHandler(t))
		var kinds []string
		for i := 0; i < 64; i++ {
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, httptest.NewRequest("POST", "/", strings.NewReader("x")))
			kinds = append(kinds, rr.Header().Get(Header))
		}
		return kinds
	}
	a := serveAll(NewPlan(1996))
	b := serveAll(NewPlan(1996))
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different schedules:\n%v\n%v", a, b)
	}
}

// TestDecidePinned pins the exact draws behind Decide: 200 decisions
// for each of 20 seeds, folded into one FNV-1a digest. A change to the
// SplitMix64 stream or to the order Decide consumes it moves the digest.
func TestDecidePinned(t *testing.T) {
	h := fnv.New64a()
	var buf [8]byte
	for seed := int64(1); seed <= 20; seed++ {
		p := NewPlan(seed)
		for i := uint64(0); i < 200; i++ {
			d := p.Decide(i)
			binary.LittleEndian.PutUint64(buf[:], uint64(d.Kind)<<56^uint64(d.Latency))
			h.Write(buf[:])
		}
	}
	if got, want := h.Sum64(), uint64(0x78457713a364411c); got != want {
		t.Errorf("decision digest = %#x, want %#x", got, want)
	}
}
