// Package client is the resilient consumer of the sx4d daemon: the
// retry/backoff layer a production caller needs between itself and a
// server that is allowed to shed load. It speaks POST /v1/run, the
// streaming POST /v1/sweep and GET /v1/stats, retrying retryable
// failures (transport errors, 503s) with capped exponential backoff
// and deterministic jitter, and honoring the server's Retry-After
// hint when it is longer than the computed backoff.
//
// Retrying is safe by construction: sx4d queries are content-addressed
// pure functions of the request, so a retry can never double-apply an
// effect — the worst case is a cache hit. That is why the client
// retries POSTs at all.
//
// Jitter is deterministic, seeded per client (SplitMix64, the repo's
// standard stream idiom): two clients with different seeds spread
// their retries apart — no thundering herd — while a test replaying a
// seed observes the exact same wait schedule. No wall-clock reading
// enters any computed duration.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"sx4bench/internal/serve"
	"sx4bench/internal/splitmix"
)

// Config configures a Client. The zero value of every field is usable.
type Config struct {
	// BaseURL locates the daemon ("http://127.0.0.1:8700"). Required.
	BaseURL string
	// HTTP is the underlying transport; nil means http.DefaultClient.
	HTTP *http.Client
	// MaxRetries bounds retry attempts after the first try; 0 means
	// DefaultMaxRetries. Negative disables retries.
	MaxRetries int
	// BaseBackoff is the first retry's nominal delay (0 =
	// DefaultBaseBackoff); MaxBackoff caps the exponential growth (0 =
	// DefaultMaxBackoff).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// JitterSeed seeds the deterministic jitter stream. Callers that
	// run many clients should give each its own seed; 0 is a valid
	// seed.
	JitterSeed int64
	// Sleep realizes backoff waits. Nil means a context-aware
	// wall-clock sleep; tests inject a recorder to run instantly.
	Sleep func(context.Context, time.Duration) error
}

// Defaults for the retry envelope.
const (
	DefaultMaxRetries  = 4
	DefaultBaseBackoff = 100 * time.Millisecond
	DefaultMaxBackoff  = 5 * time.Second
)

// Client is a resilient sx4d consumer. Safe for concurrent use.
type Client struct {
	cfg Config
}

// New returns a client for the daemon at cfg.BaseURL, normalizing
// zero limits to defaults.
func New(cfg Config) *Client {
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = DefaultMaxRetries
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = DefaultBaseBackoff
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = DefaultMaxBackoff
	}
	if cfg.Sleep == nil {
		cfg.Sleep = sleepWall
	}
	if cfg.HTTP == nil {
		cfg.HTTP = http.DefaultClient
	}
	return &Client{cfg: cfg}
}

// sleepWall is the default Sleep: wall-clock, interruptible by the
// caller's context. The timer is sanctioned wall-clock use — backoff
// waits shape scheduling, never artifact bytes.
func sleepWall(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d) //sx4lint:ignore noclock backoff wait is wall-clock scheduling, never shapes a result byte
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return context.Cause(ctx)
	}
}

// Backoff computes the wait before retry attempt (1-based): capped
// exponential growth from base with deterministic "equal jitter" — the
// wait lands uniformly in [cap/2, cap), where cap = min(base<<(attempt-1),
// max). A pure function of its arguments, exported so the
// thundering-herd test can assert both determinism (same seed, same
// schedule) and spread (different seeds, different schedules).
func Backoff(seed uint64, attempt int, base, max time.Duration) time.Duration {
	if attempt < 1 {
		attempt = 1
	}
	ceil := base
	for i := 1; i < attempt && ceil < max; i++ {
		ceil *= 2
	}
	if ceil > max {
		ceil = max
	}
	// The attempt-th draw of the stream seeded by the client seed.
	r := splitmix.Stream(splitmix.Mix(seed) + splitmix.Gamma*uint64(attempt-1))
	half := ceil / 2
	return half + time.Duration(r.Uniform()*float64(ceil-half))
}

// StatusError is a non-2xx answer that exhausted (or did not warrant)
// retries, carrying the decoded {"error": ...} message when present.
type StatusError struct {
	Code       int
	Message    string
	RetryAfter int // seconds, from the Retry-After header; 0 = absent
}

func (e *StatusError) Error() string {
	if e.Message != "" {
		return fmt.Sprintf("client: server answered %d: %s", e.Code, e.Message)
	}
	return fmt.Sprintf("client: server answered %d", e.Code)
}

// retryable reports whether an answer warrants another attempt: 503 is
// the server shedding load or timing out a queue wait — explicitly
// temporary — and nothing else is.
func retryable(code int) bool { return code == http.StatusServiceUnavailable }

// retry runs attempt until it succeeds or fails for good. A transport
// error or a retryable status backs off and tries again, waiting at
// least the server's Retry-After hint; any other failure, and any
// failure of an attempt that already delivered something to the
// caller, returns at once.
func (c *Client) retry(ctx context.Context, attempt func() (delivered bool, err error)) error {
	var lastErr error
	for n := 0; ; n++ {
		if n > 0 {
			wait := Backoff(uint64(c.cfg.JitterSeed), n, c.cfg.BaseBackoff, c.cfg.MaxBackoff)
			if ra := retryAfterOf(lastErr); ra > wait {
				wait = ra
			}
			if err := c.cfg.Sleep(ctx, wait); err != nil {
				return fmt.Errorf("client: giving up during backoff: %w", err)
			}
		}
		delivered, err := attempt()
		if err == nil {
			return nil
		}
		lastErr = err
		var se *StatusError
		if delivered || (errors.As(err, &se) && !retryable(se.Code)) {
			return err
		}
		if n >= c.cfg.MaxRetries {
			return fmt.Errorf("client: %d attempts exhausted: %w", n+1, lastErr)
		}
		if ctx.Err() != nil {
			return fmt.Errorf("client: giving up: %w", context.Cause(ctx))
		}
	}
}

// send issues one request. A 2xx answer is returned with its body
// unread; any other answer is read, closed and returned as a
// *StatusError.
func (c *Client) send(ctx context.Context, method, path, contentType string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.cfg.BaseURL+path, rd)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.cfg.HTTP.Do(req)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	if resp.StatusCode/100 != 2 {
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return nil, statusError(resp, data)
	}
	return resp, nil
}

// do issues one JSON request through the retry loop and returns the
// answer with its body fully read; callers never see a live
// connection.
func (c *Client) do(ctx context.Context, method, path string, body []byte) (resp *http.Response, data []byte, err error) {
	err = c.retry(ctx, func() (bool, error) {
		r, err := c.send(ctx, method, path, "application/json", body)
		if err != nil {
			return false, err
		}
		defer r.Body.Close()
		if data, err = io.ReadAll(r.Body); err != nil {
			return false, fmt.Errorf("client: reading response: %w", err)
		}
		resp = r
		return false, nil
	})
	if err != nil {
		return nil, nil, err
	}
	return resp, data, nil
}

func statusError(resp *http.Response, data []byte) *StatusError {
	se := &StatusError{Code: resp.StatusCode}
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(data, &e) == nil {
		se.Message = e.Error
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && ra > 0 {
		se.RetryAfter = ra
	}
	return se
}

func retryAfterOf(err error) time.Duration {
	var se *StatusError
	if errors.As(err, &se) && se.RetryAfter > 0 {
		return time.Duration(se.RetryAfter) * time.Second
	}
	return 0
}

// newLineScanner builds an NDJSON line scanner with the same generous
// buffer the server side uses.
func newLineScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	return sc
}

// RunResult couples one answered run query with its cache provenance.
type RunResult struct {
	Response serve.RunResponse
	// Body is the exact response bytes — the content-addressed
	// artifact, byte-identical on every repeat.
	Body []byte
	// CacheState is the X-Sx4d-Cache header: "hit", "miss" or
	// "coalesced".
	CacheState string
}

// Run answers one run query, retrying through shed load.
func (c *Client) Run(ctx context.Context, req serve.RunRequest) (RunResult, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return RunResult{}, fmt.Errorf("client: encoding request: %w", err)
	}
	resp, data, err := c.do(ctx, http.MethodPost, "/v1/run", body)
	if err != nil {
		return RunResult{}, err
	}
	out := RunResult{Body: data, CacheState: resp.Header.Get("X-Sx4d-Cache")}
	if err := json.Unmarshal(data, &out.Response); err != nil {
		return RunResult{}, fmt.Errorf("client: decoding response: %w", err)
	}
	return out, nil
}

// Sweep submits requests as one NDJSON stream and calls fn with each
// answer line, in input order, as it arrives. A failed attempt retries
// like Run while no line has reached fn (nothing was delivered, so the
// replay is exact); once a line has, the stream is not restarted — the
// caller re-sweeps if it must, and the daemon's cache makes the replay
// cheap. fn returning an error stops the stream.
func (c *Client) Sweep(ctx context.Context, reqs []serve.RunRequest, fn func(i int, line []byte) error) error {
	var body bytes.Buffer
	for _, r := range reqs {
		line, err := json.Marshal(r)
		if err != nil {
			return fmt.Errorf("client: encoding sweep line: %w", err)
		}
		body.Write(line)
		body.WriteByte('\n')
	}
	return c.retry(ctx, func() (bool, error) {
		n, err := c.sweepOnce(ctx, body.Bytes(), fn)
		return n > 0, err
	})
}

// sweepOnce streams one sweep attempt, returning how many answer lines
// reached fn.
func (c *Client) sweepOnce(ctx context.Context, body []byte, fn func(i int, line []byte) error) (int, error) {
	resp, err := c.send(ctx, http.MethodPost, "/v1/sweep", "application/x-ndjson", body)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := newLineScanner(resp.Body)
	n := 0
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		n++
		if err := fn(n-1, line); err != nil {
			return n, err
		}
	}
	if err := sc.Err(); err != nil {
		return n, fmt.Errorf("client: sweep stream: %w", err)
	}
	return n, nil
}

// Stats fetches the daemon's counters.
func (c *Client) Stats(ctx context.Context) (serve.Stats, error) {
	_, data, err := c.do(ctx, http.MethodGet, "/v1/stats", nil)
	if err != nil {
		return serve.Stats{}, err
	}
	var st serve.Stats
	if err := json.Unmarshal(data, &st); err != nil {
		return serve.Stats{}, fmt.Errorf("client: decoding stats: %w", err)
	}
	return st, nil
}
