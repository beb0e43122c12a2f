// Package chaos is the deterministic fault injector for the serving
// layer: what internal/fault is to the simulated machines, this
// package is to the HTTP daemon in front of them. A Plan derives a
// reproducible disturbance schedule from one integer seed (the same
// SplitMix64 stream idiom as fault.NewPlan), and Middleware applies it
// to an http.Handler: injected latency, synthetic 503s, slow-trickle
// request bodies and pre-cancelled request contexts — the hostile
// production mix the robustness tests soak the daemon under.
//
// Determinism is the point. The nth request through a middleware is
// disturbed (or not) as a pure function of (seed, n), so a soak
// failure reproduces from its seed alone, exactly like a fault-plan
// artifact. Wall-clock time never enters a decision; the only clock
// use is the injectable Sleep that realizes latency, which shapes
// scheduling but never bytes.
//
// The package is serve-agnostic: it wraps any http.Handler and is
// imported only by tests and harnesses, never by the daemon's serving
// path — production traffic must not pay for the instrumentation.
package chaos

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"sx4bench/internal/splitmix"
)

// Kind classifies one injected disturbance.
type Kind uint8

const (
	// None leaves the request untouched (the common case; the Rate
	// knob sets how uncommon).
	None Kind = iota
	// Latency delays the request by a seed-derived duration before the
	// handler sees it.
	Latency
	// InjectError answers 503 + Retry-After without invoking the
	// handler: the disturbance a well-behaved client must absorb by
	// backing off and retrying.
	InjectError
	// SlowBody trickles the request body through a small-chunk reader,
	// the slow-client read path (bufio refills, partial reads).
	SlowBody
	// CancelContext serves the request with an already-cancelled
	// context: the client that hung up before the handler ran.
	CancelContext
	numKinds
)

var kindNames = [...]string{"none", "latency", "error", "slowbody", "cancel"}

func (k Kind) String() string {
	if int(k) >= len(kindNames) {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return kindNames[k]
}

// Header is set on every response that passed through a chaos
// middleware, valued with the Kind injected ("none" included), so a
// soak can classify outcomes without guessing.
const Header = "X-Chaos"

// Plan is a seeded disturbance schedule. The zero value disturbs
// nothing; NewPlan sets the canonical soak knobs.
type Plan struct {
	// Seed reproduces the whole schedule.
	Seed int64
	// Rate is the fraction of requests disturbed, in [0, 1].
	Rate float64
	// MaxLatency bounds one injected delay (Latency draws uniformly
	// over [0, MaxLatency)).
	MaxLatency time.Duration
	// Kinds restricts which disturbances the plan draws from; empty
	// means all of them. A drain test that wants pure latency sets
	// Kinds: []Kind{Latency}.
	Kinds []Kind
	// Sleep realizes injected latency. Nil means time.Sleep; tests that
	// must not consume wall time inject a recorder instead.
	Sleep func(time.Duration)

	// n counts requests through Middleware: the per-request stream
	// index that makes decision i independent of decisions j<i yet
	// fully reproducible.
	n atomic.Uint64
}

// NewPlan returns a plan with the canonical soak knobs: disturb a
// third of requests, up to 5ms injected latency.
func NewPlan(seed int64) *Plan {
	return &Plan{Seed: seed, Rate: 1.0 / 3, MaxLatency: 5 * time.Millisecond}
}

// Decision is the disturbance drawn for one request ordinal.
type Decision struct {
	Kind    Kind
	Latency time.Duration // set when Kind == Latency
}

// Decide draws the disturbance for request ordinal i — a pure function
// of (Seed, i, Rate, MaxLatency), exported so tests can predict and
// cross-check exactly what a soak injected.
func (p *Plan) Decide(i uint64) Decision {
	r := splitmix.Stream(splitmix.Mix(uint64(p.Seed)) + splitmix.Gamma*(i+1))
	if r.Uniform() >= p.Rate {
		return Decision{Kind: None}
	}
	// Draw over the active kinds (None excluded): which disturbance.
	var k Kind
	if len(p.Kinds) > 0 {
		k = p.Kinds[r.Next()%uint64(len(p.Kinds))]
	} else {
		k = Kind(1 + r.Next()%uint64(numKinds-1))
	}
	d := Decision{Kind: k}
	if k == Latency {
		d.Latency = time.Duration(r.Uniform() * float64(p.MaxLatency))
	}
	return d
}

// Requests reports how many requests the middleware has disturbed or
// passed so far (the next ordinal to be drawn).
func (p *Plan) Requests() uint64 { return p.n.Load() }

// Middleware wraps next with the plan's disturbances. Each arriving
// request consumes one ordinal from the plan's counter; concurrent
// requests may interleave ordinals nondeterministically, but the
// decision each ordinal maps to is fixed by the seed — rerunning a
// soak replays the same multiset of disturbances.
func (p *Plan) Middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		d := p.Decide(p.n.Add(1) - 1)
		w.Header().Set(Header, d.Kind.String())
		switch d.Kind {
		case Latency:
			sleep := p.Sleep
			if sleep == nil {
				sleep = time.Sleep
			}
			sleep(d.Latency)
		case InjectError:
			w.Header().Set("Retry-After", "1")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			io.WriteString(w, `{"error": "chaos: injected unavailability"}`+"\n")
			return
		case SlowBody:
			r = r.Clone(r.Context())
			r.Body = &trickleReader{rc: r.Body}
		case CancelContext:
			ctx, cancel := context.WithCancel(r.Context())
			cancel()
			r = r.Clone(ctx)
		}
		next.ServeHTTP(w, r)
	})
}

// trickleReader hands out the body a few bytes at a time: the slowest
// well-behaved client the daemon must still serve. No wall-clock pauses
// — the small reads alone exercise the partial-read paths, and the
// soak's latency budget stays owned by the Latency kind.
type trickleReader struct {
	rc io.ReadCloser
}

const trickleChunk = 7 // prime, so chunk boundaries wander through JSON tokens

func (t *trickleReader) Read(b []byte) (int, error) {
	if len(b) > trickleChunk {
		b = b[:trickleChunk]
	}
	return t.rc.Read(b)
}

func (t *trickleReader) Close() error { return t.rc.Close() }
