// Package serve is the simulation-as-a-service layer: an HTTP/JSON
// daemon that answers NCAR-suite queries (suite × machine × fault
// seed) from the deterministic models below it. Because every result
// is a pure function of (machine configuration, benchmark list, cpus,
// fault schedule), responses are content-addressed: the daemon caches
// the exact response bytes under a fingerprint of the canonical query
// and the target configuration, coalesces identical in-flight queries
// into one execution, and serves repeats byte-identically forever.
// Cache state travels in the X-Sx4d-Cache header — never the body —
// so hits, coalesced answers and fresh executions are
// indistinguishable on the wire.
//
// The package speaks to the machines only through the target registry,
// the ncar measurement entry points and the fleet capacity engine; it
// never imports a concrete machine package (the layering analyzer pins
// this).
package serve

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

	"sx4bench/internal/benchjson"
	"sx4bench/internal/fault"
	"sx4bench/internal/fleet"
	"sx4bench/internal/ncar"
	"sx4bench/internal/target"
)

// Config carries the daemon's operating limits. The zero value is
// usable: sensible bounds, no request deadline, and a frozen clock.
type Config struct {
	// MaxConcurrent bounds simultaneous simulation executions across
	// all endpoints (cache hits and coalesced followers are not
	// counted — they do no simulation work). 0 means
	// DefaultMaxConcurrent.
	MaxConcurrent int
	// QueueDepth bounds each class's admission wait queue; arrivals
	// past it are shed immediately with 503 + Retry-After. 0 means
	// DefaultQueueDepth.
	QueueDepth int
	// QueueWait bounds how long one query may wait in the admission
	// queue before it is timed out with 503 + Retry-After; 0 means the
	// request context alone governs the wait.
	QueueWait time.Duration
	// MaxBodyBytes bounds a request body; 0 means DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// RequestTimeout bounds one run query's wall time; 0 means no
	// deadline.
	RequestTimeout time.Duration
	// Now supplies wall-clock readings for the latency counters. The
	// models never read the clock (determinism), so the daemon takes
	// it as an input too: cmd/sx4d passes time.Now, tests pass a fake,
	// and nil freezes latency at zero.
	Now func() time.Time
	// CacheBytes bounds the two caches whose keys come from client
	// input: the fleet scenario memo gets a quarter, the response
	// cache the rest, each entry counted as in responseBytes and
	// fleet.Engine.SetBudget. 0 means DefaultCacheBytes. Eviction
	// never changes a response byte: an evicted answer is recomputed
	// from the same pure inputs.
	CacheBytes int64
}

// Default operating limits.
const (
	DefaultMaxConcurrent = 8
	DefaultMaxBodyBytes  = 1 << 20
	DefaultQueueDepth    = 64
	DefaultCacheBytes    = 32 << 20
)

// responseBytes is a cached response body's cost against the budget:
// its length plus 128 bytes for the map slot, the slice header and
// allocation rounding, which measured 100–144 B per ~1 KB body in
// maps of 200 to 1 000 entries (go1.24, amd64).
func responseBytes(body []byte) int64 { return int64(len(body)) + 128 }

// Server answers simulation queries over HTTP. Create with New; the
// Server is an http.Handler safe for concurrent use.
type Server struct {
	cfg    Config
	mux    *http.ServeMux
	admit  *admitter
	cache  target.FPCache[[]byte]
	flight flightGroup
	stats  serverStats
	// capacity is the daemon-lifetime fleet Monte Carlo engine: its
	// per-scenario memo sits below the response cache, so capacity
	// queries over overlapping scenario sets re-simulate only what no
	// earlier query ran.
	capacity fleet.Engine

	// warmStart/restoredEntries/restoredMemo record snapshot
	// provenance: set once at boot by LoadSnapshot, before the server
	// handles traffic. restoredMemo is the previous lives' memo books,
	// folded into /v1/stats and the next snapshot so the ledger stays
	// continuous across restarts.
	warmStart       bool
	restoredEntries int
	restoredMemo    []MemoStat
}

// New builds a Server from cfg, normalizing zero limits to defaults.
func New(cfg Config) *Server {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = DefaultMaxConcurrent
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.CacheBytes <= 0 {
		cfg.CacheBytes = DefaultCacheBytes
	}
	s := &Server{
		cfg: cfg,
		mux: http.NewServeMux(),
		// Per-endpoint execution budgets under MaxConcurrent: the full
		// cap for cheap /v1/run queries, half for /v1/sweep lines, a
		// quarter for /v1/capacity Monte Carlos, so under overload the
		// interactive endpoint degrades last.
		admit: newAdmitter(cfg.MaxConcurrent, cfg.QueueDepth, [numClasses]int{
			classRun:      cfg.MaxConcurrent,
			classSweep:    max(1, cfg.MaxConcurrent/2),
			classCapacity: max(1, cfg.MaxConcurrent/4),
		}),
	}
	memo := cfg.CacheBytes / 4
	s.cache.SetBudget(cfg.CacheBytes-memo, responseBytes)
	s.capacity.SetBudget(memo)
	s.mux.HandleFunc("GET /healthz", s.instrument(s.handleHealthz))
	s.mux.HandleFunc("GET /v1/machines", s.instrument(s.handleMachines))
	s.mux.HandleFunc("GET /v1/stats", s.instrument(s.handleStats))
	s.mux.HandleFunc("POST /v1/run", s.instrument(s.handleQuery(func(data []byte) (query, error) {
		return s.runQuery(data, classRun)
	})))
	s.mux.HandleFunc("POST /v1/sweep", s.instrument(s.handleSweep))
	s.mux.HandleFunc("POST /v1/capacity", s.instrument(s.handleQuery(s.capacityQuery)))
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// now reads the injected clock, or reports the zero time when none was
// configured (latency counters then stay at zero).
func (s *Server) now() time.Time {
	if s.cfg.Now != nil {
		return s.cfg.Now()
	}
	return time.Time{}
}

// instrument wraps a handler with the request counter and the summed
// latency clock.
func (s *Server) instrument(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.stats.inc(nRequests)
		start := s.now()
		h(w, r)
		s.stats.latencyUS.Add(s.now().Sub(start).Microseconds())
	}
}

// httpError is an error with a wire status. The query pipeline and the
// handlers pass these up; anything else renders as 500. retryAfter,
// when nonzero, becomes a Retry-After header — every 503 carries one,
// so a well-behaved client (internal/client) backs off instead of
// retrying hot. admitOutcome classifies admission failures for the
// counters.
type httpError struct {
	code         int
	err          error
	retryAfter   int // seconds; 0 = no header
	admitOutcome admitOutcome
}

func (e *httpError) Error() string { return e.err.Error() }
func (e *httpError) Unwrap() error { return e.err }

func failf(code int, format string, args ...any) *httpError {
	return &httpError{code: code, err: fmt.Errorf(format, args...)}
}

// unavailablef is failf for 503s: every service-unavailable answer
// must tell the client when to come back.
func unavailablef(retryAfter int, format string, args ...any) *httpError {
	e := failf(http.StatusServiceUnavailable, format, args...)
	e.retryAfter = retryAfter
	return e
}

// writeError renders an error as the {"error": ...} JSON shape with
// its wire status, counting it.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	s.stats.inc(nErrors)
	code := http.StatusInternalServerError
	var he *httpError
	if errors.As(err, &he) {
		code = he.code
		if he.retryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(he.retryAfter))
		}
	}
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		code = http.StatusRequestEntityTooLarge
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(errorLine(err))
}

// errorLine renders err as one {"error": ...} JSON line: the body of
// every failed request and every failed sweep line.
func errorLine(err error) []byte {
	body, _ := json.Marshal(map[string]string{"error": err.Error()})
	return append(body, '\n')
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	io.WriteString(w, "{\"status\":\"ok\"}\n")
}

// MachineInfo is one registry entry on GET /v1/machines, listed in
// registration order (the paper's Table 1 order, then the SX-4
// configurations).
type MachineInfo struct {
	Name             string  `json:"name"`
	Title            string  `json:"title"`
	CPUs             int     `json:"cpus"`
	Nodes            int     `json:"nodes"`
	ClockNS          float64 `json:"clock_ns"`
	PeakMFLOPSPerCPU float64 `json:"peak_mflops_per_cpu"`
	HasDisk          bool    `json:"has_disk"`
	// Fingerprint is the configuration hash responses are content-
	// addressed under, as fixed-width hex.
	Fingerprint string `json:"fingerprint"`
}

func (s *Server) handleMachines(w http.ResponseWriter, r *http.Request) {
	var infos []MachineInfo
	for _, name := range target.All() {
		tgt, err := s.target(name)
		if err != nil {
			s.writeError(w, err)
			return
		}
		spec := tgt.Spec()
		infos = append(infos, MachineInfo{
			Name:             name,
			Title:            tgt.Name(),
			CPUs:             spec.CPUs,
			Nodes:            spec.Nodes,
			ClockNS:          spec.ClockNS,
			PeakMFLOPSPerCPU: spec.PeakMFLOPSPerCPU,
			HasDisk:          spec.DiskBytesPerSec > 0,
			Fingerprint:      fmt.Sprintf("%016x", tgt.Fingerprint()),
		})
	}
	s.writeJSON(w, map[string]any{"machines": infos})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.stats.snapshot()
	rc := s.cache.Stats()
	st.CacheEntries = rc.Entries
	st.CacheBytes = rc.Bytes
	st.CacheEvictions = rc.Evictions
	st.QueueDepth = s.admit.queued()
	st.InFlight = s.admit.executing()
	st.WarmStart = s.warmStart
	st.RestoredEntries = s.restoredEntries
	st.Machines = len(target.All())
	cs := s.capacity.Stats()
	st.CapacityScenariosRun = cs.Misses
	st.CapacityScenarioHits = cs.Hits
	st.CapacityScenarioEvictions = cs.Evictions
	// A machine nobody has asked for is unbuilt and has no books.
	target.EachShared(func(_ string, tgt target.Target) {
		ms := tgt.CacheStats()
		st.MemoHits += ms.Hits
		st.MemoMisses += ms.Misses
		st.MemoEntries += ms.Entries
	})
	for _, m := range s.restoredMemo {
		st.MemoHits += m.Hits
		st.MemoMisses += m.Misses
	}
	s.writeJSON(w, st)
}

func (s *Server) writeJSON(w http.ResponseWriter, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		s.writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(body, '\n'))
}

// handleQuery is the POST path /v1/run and /v1/capacity share: read
// the bounded body, resolve it into a query, serve it, and write the
// answer with its cache state.
func (s *Server) handleQuery(resolve func([]byte) (query, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := s.queryContext(r.Context())
		defer cancel()
		data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
		var q query
		if err == nil {
			q, err = resolve(data)
		}
		var body []byte
		var state string
		if err == nil {
			body, state, err = s.serve(ctx, q)
		}
		if err != nil {
			s.writeError(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Sx4d-Cache", state)
		w.Write(body)
	}
}

// handleSweep consumes NDJSON run requests and streams one NDJSON
// answer line per input line, flushing what it has answered before it
// reads more input: a response body line is either a run response or
// an {"error": ...} object, in input order. A malformed line fails
// that line only — bulk submission is the point, and one typo must not
// void a thousand-query sweep.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := s.queryContext(r.Context())
	defer cancel()
	w.Header().Set("Content-Type", "application/x-ndjson")
	// Answers stream while the body is still arriving. An HTTP/1.x
	// server otherwise closes the request body at the first flush, cutting
	// off every line the connection had not yet buffered.
	http.NewResponseController(w).EnableFullDuplex()
	flusher, _ := w.(http.Flusher)
	in := &flushBeforeRead{body: http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), flusher: flusher}
	sc := bufio.NewScanner(in)
	// The scanner starts at its own 4 KiB, which reads a typical sweep
	// body whole, and grows for a longer line up to the body limit.
	sc.Buffer(nil, int(s.cfg.MaxBodyBytes))
	// A read error reaches the split function as EOF would, so a line
	// the body limit cut off would be answered as far as it was read.
	// It gets no answer: the sweep ends in the error line instead.
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		if atEOF && in.err != nil && bytes.IndexByte(data, '\n') < 0 {
			return 0, nil, in.err
		}
		return bufio.ScanLines(data, atEOF)
	})
	for sc.Scan() {
		// A sweep whose client disconnected mid-stream must stop
		// producing: the request context dies with the connection, and
		// every remaining line would be simulation work nobody reads.
		if ctx.Err() != nil {
			s.stats.inc(nSweepAborts)
			return
		}
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		s.stats.inc(nSweepLines)
		var out []byte
		q, err := s.runQuery(line, classSweep)
		if err == nil {
			out, _, err = s.serve(ctx, q)
		}
		if err != nil {
			s.stats.inc(nErrors)
			out = errorLine(err)
		}
		w.Write(out)
		in.pending = true
	}
	if err := sc.Err(); err != nil {
		// Too late for a status change if lines already streamed; emit
		// the failure as a final NDJSON error line instead.
		s.stats.inc(nErrors)
		w.Write(errorLine(err))
	}
}

// flushBeforeRead is a sweep's request body: it flushes the answers
// written since its last read before reading more input. So an answer
// is on the wire before the daemon waits for the client's next line,
// and a client that sends line k+1 only after reading answer k is
// served, while a body that arrived whole is answered by net/http's
// buffer-full writes and its final flush: a few writes for a 25-line
// sweep rather than one per line.
type flushBeforeRead struct {
	body    io.Reader
	flusher http.Flusher // nil when the writer cannot flush
	pending bool         // answers written since the last flush
	err     error        // the body's read error other than io.EOF
}

func (f *flushBeforeRead) Read(p []byte) (int, error) {
	if f.pending && f.flusher != nil {
		f.flusher.Flush()
	}
	f.pending = false
	n, err := f.body.Read(p)
	if err != nil && err != io.EOF {
		f.err = err
	}
	return n, err
}

// queryContext applies the configured per-request deadline.
func (s *Server) queryContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if s.cfg.RequestTimeout > 0 {
		return context.WithTimeout(ctx, s.cfg.RequestTimeout)
	}
	return context.WithCancel(ctx)
}

// target resolves a registry name to its shared instance
// (target.Shared), so the compiled-trace cache warms across the whole
// query stream; an unknown name is a 404.
func (s *Server) target(name string) (target.Target, error) {
	tgt, err := target.Shared(name)
	if err != nil {
		return nil, failf(http.StatusNotFound, "%s", err)
	}
	return tgt, nil
}

// RunResponse is the wire shape of one answered query.
type RunResponse struct {
	Machine string `json:"machine"`
	CPUs    int    `json:"cpus"`
	// FaultSeed echoes the request's seed (0 = fault-free).
	FaultSeed int64 `json:"fault_seed,omitempty"`
	// Results carries one benchjson record per suite member, in
	// request order: Name is the member, Iterations its KTRIES
	// repetition count, NsPerOp the simulated attempt duration in
	// nanoseconds, Metrics the member's headline rates (plus
	// "attempts" and "finished_at_s" under faults).
	Results []benchjson.Result `json:"results"`
}

// admitOne passes one execution through the admission queue, applying
// the configured queue-wait deadline and classifying the outcome into
// the admission counters. The returned release also counts completion,
// so admitted == completed + the in-flight gauge at every instant and
// the chaos soak can assert the books balance.
func (s *Server) admitOne(ctx context.Context, c admitClass) (release func(), err error) {
	s.stats.inc(nAdmitRequests)
	wctx, cancel := ctx, context.CancelFunc(func() {})
	if s.cfg.QueueWait > 0 {
		wctx, cancel = context.WithTimeout(ctx, s.cfg.QueueWait)
	}
	rel, aerr := s.admit.acquire(wctx, c)
	cancel()
	if aerr != nil {
		switch aerr.admitOutcome {
		case outcomeShed:
			s.stats.inc(nShed)
		case outcomeTimeout:
			s.stats.inc(nQueueTimeouts)
		default:
			s.stats.inc(nQueueCancelled)
		}
		return nil, aerr
	}
	s.stats.inc(nAdmitted)
	return func() {
		s.stats.inc(nCompleted)
		rel()
	}, nil
}

// query is one content-addressed unit of work, the form every
// endpoint reduces its request to: the admission class its execution
// runs under, the response-cache key, and the execution that renders
// the response bytes on a miss.
type query struct {
	class   admitClass
	key     uint64
	execute func(context.Context) ([]byte, error)
}

// serve answers one query: from the response cache, coalesced into an
// identical in-flight query, or executed fresh — the last gated by the
// admission queue under the query's class. The returned state is the
// X-Sx4d-Cache header value; the body is byte-identical across all
// three for the same key.
func (s *Server) serve(ctx context.Context, q query) (body []byte, state string, err error) {
	// A dead context gets no answer, cached or not: the client already
	// hung up, so any bytes written now are wasted work.
	if ctx.Err() != nil {
		return nil, "", unavailablef(1, "serve: query abandoned: %s", context.Cause(ctx))
	}
	if b, ok := s.cache.Load(q.key); ok {
		s.stats.inc(nCacheHits)
		return b, "hit", nil
	}
	body, err, coalesced := s.flight.do(q.key, func() ([]byte, error) {
		release, err := s.admitOne(ctx, q.class)
		if err != nil {
			return nil, err
		}
		defer release()
		b, err := q.execute(ctx)
		if err != nil {
			return nil, err
		}
		return s.cache.LoadOrStore(q.key, func() []byte { return b }), nil
	})
	if err != nil {
		return nil, "", err
	}
	if coalesced {
		s.stats.inc(nCoalesced)
		return body, "coalesced", nil
	}
	s.stats.inc(nRunsExecuted)
	return body, "miss", nil
}

// runQuery decodes one run request — a /v1/run body or a sweep line —
// and resolves it into a query under class.
func (s *Server) runQuery(data []byte, class admitClass) (query, error) {
	req, err := DecodeRunRequest(data)
	if err != nil {
		return query{}, failf(http.StatusBadRequest, "%s", err)
	}
	return s.resolveRun(req, class)
}

// resolveRun resolves a validated run request into a query under
// class: the canonical form, the shared target instance, and the
// content key.
func (s *Server) resolveRun(req RunRequest, class admitClass) (query, error) {
	s.stats.inc(nRunQueries)
	canon := req.Canonical()
	tgt, err := s.target(canon.Machine)
	if err != nil {
		return query{}, err
	}
	return query{class, canon.Fingerprint(tgt.Fingerprint()), func(ctx context.Context) ([]byte, error) {
		resp, err := s.execute(ctx, tgt, canon, req.Workers)
		if err != nil {
			return nil, err
		}
		return renderRunResponse(&resp)
	}}, nil
}

// execute runs the canonical query's simulation into the response the
// query renders. workers rides alongside the canonical request (it
// shapes the evaluation schedule, never the bytes). ctx is the
// request's deadline, propagated into the measurement layer so a
// client that hangs up stops paying for simulation at the next member
// boundary; abandoned work is a 503, never a half-rendered body.
func (s *Server) execute(ctx context.Context, tgt target.Target, canon RunRequest, workers int) (RunResponse, error) {
	cpus := canon.CPUs
	if cpus <= 0 {
		cpus = tgt.Spec().CPUs
	}
	resp := RunResponse{
		Machine:   tgt.Name(),
		CPUs:      cpus,
		FaultSeed: canon.FaultSeed,
	}
	if canon.FaultSeed == 0 {
		ms, err := ncar.MeasureSuite(ctx, tgt, canon.Benchmarks, canon.CPUs, workers)
		if err != nil {
			return RunResponse{}, s.executeError(err)
		}
		resp.Results = make([]benchjson.Result, 0, len(ms))
		for _, m := range ms {
			resp.Results = append(resp.Results, measurementResult(m))
		}
	} else {
		opts := ncar.ResilientOpts{
			Injector:        fault.NewPlan(canon.FaultSeed, fault.CanonicalHorizon, fault.CanonicalEvents),
			DeadlineSeconds: canon.DeadlineSeconds,
			MaxAttempts:     canon.MaxAttempts,
		}
		rms, err := ncar.MeasureSuiteResilient(ctx, tgt, canon.Benchmarks, canon.CPUs, workers, opts)
		if err != nil {
			return RunResponse{}, s.executeError(err)
		}
		resp.Results = make([]benchjson.Result, 0, len(rms))
		for _, rm := range rms {
			r := measurementResult(rm.Measurement)
			if r.Metrics == nil {
				r.Metrics = make(map[string]float64)
			}
			r.Metrics["attempts"] = float64(rm.Attempts)
			r.Metrics["finished_at_s"] = rm.FinishedAt
			resp.Results = append(resp.Results, r)
		}
	}
	return resp, nil
}

// executeError classifies a measurement failure: a context death that
// surfaced mid-execution is counted and mapped to 503 (the work was
// abandoned, not wrong); everything else is the request's fault, 422.
func (s *Server) executeError(err error) error {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		s.stats.inc(nExecCancelled)
		return unavailablef(1, "%s", err)
	}
	return failf(http.StatusUnprocessableEntity, "%s", err)
}

// measurementResult renders one structured measurement as a benchjson
// record: the shape clients already parse from benchmark text, so a
// response embeds cleanly in existing tooling.
func measurementResult(m ncar.Measurement) benchjson.Result {
	return benchjson.Result{
		Name:       m.Benchmark,
		Iterations: int64(m.KTries),
		NsPerOp:    m.Seconds * 1e9,
		Metrics:    m.Metrics,
	}
}

// CanonicalRequest is the golden-pinned query: the full suite on the
// flagship SX-4/32, fault-free, at default allocation.
func CanonicalRequest() RunRequest {
	return RunRequest{Machine: "sx4-32"}
}

// RenderCanonical writes the exact response body POST /v1/run returns
// for CanonicalRequest — the byte-stable artifact the golden suite and
// the serve-smoke script both diff against a live daemon's output.
func RenderCanonical(w io.Writer) error {
	s := New(Config{})
	q, err := s.resolveRun(CanonicalRequest(), classRun)
	if err != nil {
		return err
	}
	body, _, err := s.serve(context.Background(), q)
	if err != nil {
		return err
	}
	_, err = w.Write(body)
	return err
}
