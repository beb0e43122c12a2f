package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	"sx4bench"
	"sx4bench/internal/benchjson"
	"sx4bench/internal/core"
	"sx4bench/internal/fault"
	"sx4bench/internal/fleet"
	"sx4bench/internal/ncar"
	"sx4bench/internal/serve"
	"sx4bench/internal/target"
)

// The traced replay runs in a fresh process and sends the workload's
// seeded request list, one request at a time, through the public
// functions each layer exports, with a span around every call. Spans
// are kept in memory and written to .bench_build/spans at exit. A layer's
// metric is the median self time (span duration minus its children) of
// its spans. After the workload's own replay, a small probe replays the
// other workloads' lists too, so every layer has a value on every
// workload; probe spans are used only for layers the workload itself
// never calls, and they never count as the workload's own spans.

type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`    // request id; -1 outside requests
	Parent int    `json:"parent"` // index of the enclosing span; -1 for none
	Phase  string `json:"phase"`  // setup, replay or probe
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type recorder struct {
	on      bool
	t0      time.Time
	phase   string
	probing bool
	req     int
	spans   []span
	open    []int
	values  map[string][]float64 // phase/name -> recorded counts
}

func (r *recorder) begin(name string) int {
	if !r.on {
		return -1
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{Name: name, Req: r.req, Parent: parent, Phase: r.phaseName(), Start: time.Since(r.t0).Nanoseconds()})
	r.open = append(r.open, len(r.spans)-1)
	return len(r.spans) - 1
}

func (r *recorder) end(i int) {
	if i < 0 {
		return
	}
	r.spans[i].End = time.Since(r.t0).Nanoseconds()
	r.open = r.open[:len(r.open)-1]
}

func (r *recorder) phaseName() string {
	if r.probing {
		return "probe"
	}
	return r.phase
}

func (r *recorder) value(name string, v float64) {
	if r.on {
		k := r.phaseName() + "/" + name
		r.values[k] = append(r.values[k], v)
	}
}

// replayer holds the state one replay builds up, as the daemon would:
// one target per machine, a response cache, a scenario memo and one
// capacity engine per fleet.
type replayer struct {
	rec     *recorder
	ctx     context.Context
	targets map[string]target.Target
	cache   target.FPCache[[]byte]
	scen    map[string]fleet.ScenarioResult
	engines map[string]*fleet.Engine
	digests map[uint64]uint64
	reqs    int // requests replayed in the replay phase
}

func newReplayer(rec *recorder, digests map[uint64]uint64) *replayer {
	return &replayer{
		rec: rec, ctx: context.Background(), digests: digests,
		targets: map[string]target.Target{}, scen: map[string]fleet.ScenarioResult{}, engines: map[string]*fleet.Engine{},
	}
}

func (x *replayer) target(name string) (target.Target, error) {
	if t, ok := x.targets[name]; ok {
		return t, nil
	}
	t, err := target.Lookup(name)
	if err != nil {
		return nil, err
	}
	x.targets[name] = t
	return t, nil
}

// Replay sizes: the run-hot list is replayed whole; the others are cut
// to a prefix, since every layer metric is a median.
var replayLimit = map[string]int{"run-hot": 1 << 30, "sweep-cold": 300, "capacity": 100}

const (
	roundtrips       = 2000 // GET /healthz round trips of the http.roundtrip layer
	probeScale       = 0.05 // plan size of the probe replays, in --seconds
	probeLimit       = 5
	probeRoundtrips  = 50
	measureProbeRuns = 200 // ncar.Measure calls of the cold/warm/resilient layers
)

func (x *replayer) replay(p *plan, limit int) error {
	switch p.Workload {
	case "run-hot":
		return x.replayRunHot(p, limit)
	case "sweep-cold":
		return x.replaySweep(p, limit)
	case "capacity":
		return x.replayCapacity(p, limit)
	case "paper":
		return x.replayPaper()
	}
	return fmt.Errorf("unknown workload %q", p.Workload)
}

func (x *replayer) requests(p *plan, limit int, each func(r request) error) error {
	var reqs []request
	reqs = append(reqs, p.Open...)
	for i := 0; len(p.Closed) > 0 && i < len(p.Closed[0]); i++ {
		for _, l := range p.Closed {
			if i < len(l) {
				reqs = append(reqs, l[i])
			}
		}
	}
	reqs = append(reqs, p.Serial...)
	x.rec.phase = "replay"
	for i, r := range reqs[:min(limit, len(reqs))] {
		x.rec.req = i
		root := x.rec.begin("request")
		err := each(r)
		x.rec.end(root)
		if err != nil {
			return err
		}
		if !x.rec.probing {
			x.reqs++
		}
	}
	x.rec.req = -1
	return nil
}

func (x *replayer) setup(p *plan, each func(r request) error) error {
	x.rec.phase, x.rec.req = "setup", -1
	for _, r := range p.Setup {
		if err := each(r); err != nil {
			return err
		}
	}
	return nil
}

func (x *replayer) replayRunHot(p *plan, limit int) error {
	x.rec.phase, x.rec.req = "setup", -1
	tgt, err := x.target("sx4-32")
	if err != nil {
		return err
	}
	for _, m := range members {
		s := x.rec.begin("ncar.measure_first")
		_, err := ncar.Measure(x.ctx, tgt, m, 0)
		x.rec.end(s)
		if err != nil {
			return err
		}
	}
	run := func(r request) error { return x.runQuery(r.Body, r.Keys[0]) }
	if err := x.setup(p, run); err != nil {
		return err
	}
	if err := x.roundtrips(); err != nil {
		return err
	}
	return x.requests(p, limit, run)
}

func (x *replayer) replaySweep(p *plan, limit int) error {
	if err := x.setup(p, func(r request) error { return x.runQuery(r.Body, r.Keys[0]) }); err != nil {
		return err
	}
	if err := x.roundtrips(); err != nil {
		return err
	}
	var lines []wireRun
	err := x.requests(p, limit, func(r request) error {
		for i, line := range bytes.Split(bytes.TrimSpace(r.Body), []byte("\n")) {
			if err := x.runQuery(line, r.Keys[i]); err != nil {
				return err
			}
			var q wireRun
			if err := json.Unmarshal(line, &q); err != nil {
				return err
			}
			lines = append(lines, q)
		}
		return nil
	})
	if err != nil {
		return err
	}
	return x.measureProbes(lines)
}

// measureProbes times ncar.Measure on a fresh target (warm trace caches,
// cold timing memo), the same call again on that target (memo hit), and
// ncar.MeasureResilient for the members of fault lines.
func (x *replayer) measureProbes(lines []wireRun) error {
	x.rec.phase, x.rec.req = "replay", -1
	cold, res := 0, 0
	for _, q := range lines {
		ms := q.Benchmarks
		if ms == nil {
			ms = members
		}
		for _, m := range ms {
			if q.FaultSeed != 0 {
				if res >= measureProbeRuns {
					continue
				}
				res++
				tgt, err := x.target(q.Machine)
				if err != nil {
					return err
				}
				opts := ncar.ResilientOpts{Injector: fault.NewPlan(q.FaultSeed, fault.CanonicalHorizon, fault.CanonicalEvents)}
				s := x.rec.begin("ncar.resilient")
				_, err = ncar.MeasureResilient(x.ctx, tgt, m, q.CPUs, opts)
				x.rec.end(s)
				if err != nil {
					return err
				}
				continue
			}
			if cold >= measureProbeRuns {
				continue
			}
			cold++
			fresh, err := target.Lookup(q.Machine)
			if err != nil {
				return err
			}
			for _, name := range []string{"ncar.measure_cold", "ncar.measure_warm"} {
				s := x.rec.begin(name)
				_, err := ncar.Measure(x.ctx, fresh, m, q.CPUs)
				x.rec.end(s)
				if err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// runQuery takes one /v1/run body down the daemon's path: decode,
// content key, cache read, and on a miss the suite, the rendering and
// the cache insert.
func (x *replayer) runQuery(body []byte, key uint64) error {
	s := x.rec.begin("serve.decode")
	req, err := serve.DecodeRunRequest(body)
	x.rec.end(s)
	if err != nil {
		return err
	}
	s = x.rec.begin("serve.key")
	canon := req.Canonical()
	tgt, err := x.target(canon.Machine)
	var fp uint64
	if err == nil {
		fp = canon.Fingerprint(tgt.Fingerprint())
	}
	x.rec.end(s)
	if err != nil {
		return err
	}
	s = x.rec.begin("serve.cache_get")
	b, ok := x.cache.Load(fp)
	x.rec.end(s)
	if !ok {
		out, err := x.execute(tgt, canon, req.Workers)
		if err != nil {
			return fmt.Errorf("%s: %w", body, err)
		}
		s = x.rec.begin("serve.cache_put")
		b = x.cache.LoadOrStore(fp, func() []byte { return out })
		x.rec.end(s)
	}
	x.digests[key] = digest(b)
	return nil
}

// execute renders a run response as serve does: the measurements as
// benchjson records, fault attempts as extra metrics, JSON plus newline.
func (x *replayer) execute(tgt target.Target, canon serve.RunRequest, workers int) ([]byte, error) {
	cpus := canon.CPUs
	if cpus <= 0 {
		cpus = tgt.Spec().CPUs
	}
	resp := serve.RunResponse{Machine: tgt.Name(), CPUs: cpus, FaultSeed: canon.FaultSeed}
	var (
		ms  []ncar.Measurement
		rms []ncar.ResilientMeasurement
		err error
	)
	s := x.rec.begin("ncar.suite")
	if canon.FaultSeed == 0 {
		ms, err = ncar.MeasureSuite(x.ctx, tgt, canon.Benchmarks, canon.CPUs, workers)
	} else {
		opts := ncar.ResilientOpts{
			Injector:        fault.NewPlan(canon.FaultSeed, fault.CanonicalHorizon, fault.CanonicalEvents),
			DeadlineSeconds: canon.DeadlineSeconds,
			MaxAttempts:     canon.MaxAttempts,
		}
		rms, err = ncar.MeasureSuiteResilient(x.ctx, tgt, canon.Benchmarks, canon.CPUs, workers, opts)
	}
	x.rec.end(s)
	if err != nil {
		return nil, err
	}
	s = x.rec.begin("serve.render")
	defer x.rec.end(s)
	for _, m := range ms {
		resp.Results = append(resp.Results, resultOf(m))
	}
	for _, rm := range rms {
		r := resultOf(rm.Measurement)
		if r.Metrics == nil {
			r.Metrics = map[string]float64{}
		}
		r.Metrics["attempts"] = float64(rm.Attempts)
		r.Metrics["finished_at_s"] = rm.FinishedAt
		resp.Results = append(resp.Results, r)
	}
	b, err := json.Marshal(resp)
	return append(b, '\n'), err
}

func resultOf(m ncar.Measurement) benchjson.Result {
	r := benchjson.Result{Name: m.Benchmark, Iterations: int64(m.KTries), NsPerOp: m.Seconds * 1e9}
	if len(m.Metrics) > 0 {
		r.Metrics = make(map[string]float64, len(m.Metrics))
		for k, v := range m.Metrics {
			r.Metrics[k] = v
		}
	}
	return r
}

func (x *replayer) replayCapacity(p *plan, limit int) error {
	run := func(r request) error { return x.runCapacity(r.Body, r.Keys[0]) }
	if err := x.setup(p, run); err != nil {
		return err
	}
	if err := x.roundtrips(); err != nil {
		return err
	}
	return x.requests(p, limit, run)
}

// runCapacity takes one /v1/capacity body down the daemon's path. The
// scenarios a query needs and no earlier query ran are simulated one
// by one (arrivals, cluster, percentiles); the aggregation is then timed
// as Engine.MonteCarlo on an engine that already holds every scenario.
func (x *replayer) runCapacity(body []byte, key uint64) error {
	s := x.rec.begin("serve.decode")
	req, err := serve.DecodeCapacityRequest(body)
	x.rec.end(s)
	if err != nil {
		return err
	}
	s = x.rec.begin("serve.key")
	canon := req.Canonical()
	h := fnv.New64a()
	h.Write([]byte(canon.Fleet))
	binary.Write(h, binary.LittleEndian, [2]int64{int64(canon.Scenarios), canon.Seed})
	fp := h.Sum64()
	x.rec.end(s)
	s = x.rec.begin("fleet.parse")
	nodes, err := fleet.ParseSpec(canon.Fleet)
	x.rec.end(s)
	if err != nil {
		return err
	}
	s = x.rec.begin("serve.cache_get")
	b, ok := x.cache.Load(fp)
	x.rec.end(s)
	if !ok {
		cfg := fleet.Config{Nodes: nodes, Mixes: fleet.CanonicalMixes(), Scenarios: canon.Scenarios, Seed: canon.Seed}
		results := make([]fleet.ScenarioResult, cfg.Scenarios)
		for i := range results {
			sk := fmt.Sprintf("%s|%d|%d", canon.Fleet, canon.Seed, i)
			r, ok := x.scen[sk]
			if !ok {
				r = x.scenario(cfg, i)
				x.scen[sk] = r
			}
			results[i] = r
		}
		eng := x.engines[canon.Fleet]
		if eng == nil {
			eng = &fleet.Engine{}
			x.engines[canon.Fleet] = eng
		}
		s = x.rec.begin("fill")
		_, err := eng.MonteCarlo(cfg, 1)
		x.rec.end(s)
		if err != nil {
			return err
		}
		s = x.rec.begin("fleet.aggregate")
		rep, err := eng.MonteCarlo(cfg, 1)
		x.rec.end(s)
		if err != nil {
			return err
		}
		if !slices.Equal(rep.Results, results) {
			return fmt.Errorf("%s: scenario-by-scenario replay differs from fleet.Engine", body)
		}
		s = x.rec.begin("serve.render")
		out, err := renderCapacity(canon, nodes, rep)
		x.rec.end(s)
		if err != nil {
			return err
		}
		s = x.rec.begin("serve.cache_put")
		b = x.cache.LoadOrStore(fp, func() []byte { return out })
		x.rec.end(s)
	}
	x.digests[key] = digest(b)
	return nil
}

// scenario simulates scenario i of cfg as the engine does, with the
// engine's defaults: a week-long horizon and the default fault events.
func (x *replayer) scenario(cfg fleet.Config, i int) fleet.ScenarioResult {
	sc := cfg.ScenarioAt(i)
	specs := cfg.Nodes
	if sc.Down >= 0 && sc.Down < len(specs) {
		specs = append(append([]fleet.NodeSpec(nil), specs[:sc.Down]...), specs[sc.Down+1:]...)
	}
	var r0, r1, r2 rtSample
	if x.rec.on {
		r0 = readRuntime()
	}
	s := x.rec.begin("fleet.arrivals")
	arrivals := cfg.Mixes[sc.Mix].Arrivals(sc.ArrivalSeed, fleet.WeekSeconds)
	x.rec.end(s)
	if x.rec.on {
		r1 = readRuntime()
	}
	s = x.rec.begin("fleet.cluster")
	res := fleet.NewCluster(specs, sc.FaultSeed, fleet.WeekSeconds, fleet.DefaultFaultEventsPerNode).Run(arrivals)
	x.rec.end(s)
	if x.rec.on {
		r2 = readRuntime()
		x.rec.value("fleet.arrivals_allocs", r1.mallocs-r0.mallocs)
		x.rec.value("fleet.cluster_allocs", r2.mallocs-r1.mallocs)
		x.rec.value("fleet.cluster_kb", (r2.allocBytes-r1.allocBytes)/1024)
	}
	x.rec.value("fleet.jobs_per_scenario", float64(res.Jobs))
	s = x.rec.begin("core.percentiles")
	ps := core.Percentiles(res.Latencies, 50, 95, 99)
	x.rec.end(s)
	return fleet.ScenarioResult{
		Mix: sc.Mix, Degraded: sc.Down >= 0, Jobs: res.Jobs, Finished: res.Finished,
		P50: ps[0], P95: ps[1], P99: ps[2], Makespan: res.Makespan,
		Recovered: res.Recovered, Failed: res.Failed, Lost: res.Lost,
	}
}

// renderCapacity builds the capacity wire response as serve does.
func renderCapacity(canon serve.CapacityRequest, nodes []fleet.NodeSpec, rep fleet.Report) ([]byte, error) {
	resp := serve.CapacityResponse{
		Fleet: canon.Fleet, Nodes: len(nodes), Scenarios: rep.Scenarios, Seed: canon.Seed,
		Jobs: rep.Jobs, Checksum: fmt.Sprintf("%016x", rep.Checksum),
	}
	for _, m := range rep.Mixes {
		resp.Mixes = append(resp.Mixes, serve.CapacityMixSummary{
			Mix: m.Mix, Pattern: m.Pattern, Scenarios: m.Scenarios, Degraded: m.Degraded, Jobs: m.Jobs,
			P50Seconds: m.P50, P95Seconds: m.P95, P99Seconds: m.P99,
			MakespanP50: m.MakespanP50, MakespanMax: m.MakespanMax,
			Recovered: m.Recovered, Failed: m.Failed, Lost: m.Lost,
		})
	}
	b, err := json.Marshal(resp)
	return append(b, '\n'), err
}

// replayPaper runs every experiment serially on a fresh sx4-32 target,
// as RunAllWorkers does at workers = 1, one span per experiment.
func (x *replayer) replayPaper() error {
	tgt, err := target.Lookup("sx4-32")
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	x.rec.phase, x.rec.req = "replay", 0
	root := x.rec.begin("request")
	for _, id := range sx4bench.Experiments() {
		s := x.rec.begin("sx4bench.exp." + id)
		fmt.Fprintf(&buf, "\n=== %s ===\n", id)
		err := sx4bench.RunExperiment(&buf, tgt, id)
		x.rec.end(s)
		if err != nil {
			return err
		}
	}
	x.rec.end(root)
	x.rec.req = -1
	if !x.rec.probing {
		x.reqs++
		x.digests[paperKey] = digest(buf.Bytes())
	}
	return nil
}

// roundtrips times GET /healthz against a fresh in-process daemon on one
// connection: the HTTP cost every request pays before the handler.
func (x *replayer) roundtrips() error {
	n := roundtrips
	if x.rec.probing {
		n = probeRoundtrips
	}
	d, err := startDaemon(sx4d(), 1)
	if err != nil {
		return err
	}
	saved := x.rec.req
	x.rec.req = -1
	for i := 0; i < n; i++ {
		s := x.rec.begin("http.roundtrip")
		a := d.send(http.MethodGet, "/healthz", nil, nil)
		x.rec.end(s)
		if a.err != nil || a.status != 200 {
			d.stop()
			return fmt.Errorf("GET /healthz: status %d: %v", a.status, a.err)
		}
	}
	x.rec.req = saved
	return d.stop()
}

// replayOut is what a replay child reports.
type replayOut struct {
	WallMS  float64              `json:"wall_ms"` // the workload's own replay, probe excluded
	Layers  map[string]layerStat `json:"layers"`
	Values  map[string]float64   `json:"values"`
	Spans   map[string]int       `json:"spans"` // replay-phase request spans per name prefix
	Digests map[uint64]uint64    `json:"digests"`
}

type layerStat struct {
	MedianUS float64 `json:"median_us"` // median self time
	PerReq   float64 `json:"per_req"`   // spans per replayed request, on the request path
	Probe    bool    `json:"probe"`     // taken from the probe
}

func replayChild(o opts, spans bool) (replayOut, error) {
	p, err := newPlan(o.workload, o.seed, o.seconds, o.nproc)
	if err != nil {
		return replayOut{}, err
	}
	rec := &recorder{on: spans, t0: time.Now(), req: -1, values: map[string][]float64{}}
	out := replayOut{Digests: map[uint64]uint64{}}
	x := newReplayer(rec, out.Digests)
	t0 := time.Now()
	if err := x.replay(p, replayLimit[p.Workload]); err != nil {
		return out, err
	}
	out.WallMS = ms(time.Since(t0))
	if !spans {
		return out, nil
	}
	rec.probing = true
	for _, w := range workloads {
		if w == p.Workload {
			continue
		}
		tiny, err := newPlan(w, o.seed, probeScale, o.nproc)
		if err != nil {
			return out, err
		}
		if err := newReplayer(rec, map[uint64]uint64{}).replay(tiny, probeLimit); err != nil {
			return out, fmt.Errorf("probe %s: %w", w, err)
		}
	}
	out.Layers, out.Spans = summarize(rec.spans, x.reqs)
	out.Values = map[string]float64{}
	for k, vs := range rec.values {
		phase, name, _ := strings.Cut(k, "/")
		if phase == "probe" && (rec.values["setup/"+name] != nil || rec.values["replay/"+name] != nil) {
			continue
		}
		out.Values[name] = median(vs)
	}
	return out, writeSpans(o, rec.spans)
}

// summarize turns spans into per-layer self-time medians, preferring the
// workload's own spans over the probe's.
func summarize(spans []span, reqs int) (map[string]layerStat, map[string]int) {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	own, probe := map[string][]float64{}, map[string][]float64{}
	onPath := map[string]int{}
	prefixes := map[string]int{}
	for i, s := range spans {
		self := float64(s.End-s.Start-child[i]) / 1e3
		if s.Phase == "probe" {
			probe[s.Name] = append(probe[s.Name], self)
			continue
		}
		own[s.Name] = append(own[s.Name], self)
		if s.Phase == "replay" && s.Req >= 0 {
			onPath[s.Name]++
			prefix, _, _ := strings.Cut(s.Name, ".")
			prefixes[prefix]++
		}
	}
	layers := map[string]layerStat{}
	for name, xs := range own {
		layers[name] = layerStat{MedianUS: median(xs), PerReq: float64(onPath[name]) / float64(max(reqs, 1))}
	}
	for name, xs := range probe {
		if _, ok := layers[name]; !ok {
			layers[name] = layerStat{MedianUS: median(xs), Probe: true}
		}
	}
	return layers, prefixes
}

func writeSpans(o opts, spans []span) error {
	dir := filepath.Join(o.root, ".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed)), b, 0o644)
}

// layerMetrics lists every per-layer metric with its unit, in the order
// BENCHMARK.json gives them.
func layerMetrics() []struct{ name, unit string } {
	out := []struct{ name, unit string }{
		{"loadgen.lag_p50_ms", "ms"}, {"loadgen.lag_p99_ms", "ms"},
		{"http.roundtrip_us", "us"},
		{"serve.decode_us", "us"}, {"serve.key_us", "us"}, {"serve.cache_get_us", "us"},
		{"serve.cache_put_us", "us"}, {"serve.render_us", "us"},
		{"serve.hit_ratio", "ratio"}, {"serve.coalesced_ratio", "ratio"},
		{"serve.cache_entries", "count"}, {"serve.rejected", "count"},
		{"ncar.measure_first_us", "us"}, {"ncar.measure_cold_us", "us"}, {"ncar.measure_warm_us", "us"},
		{"ncar.resilient_us", "us"}, {"ncar.suite_us", "us"},
		{"target.memo_hit_ratio", "ratio"},
		{"fleet.parse_us", "us"}, {"fleet.arrivals_us", "us"}, {"fleet.arrivals_allocs", "count"},
		{"fleet.cluster_us", "us"}, {"fleet.cluster_allocs", "count"}, {"fleet.cluster_kb", "KiB"},
		{"fleet.jobs_per_scenario", "count"}, {"fleet.aggregate_us", "us"}, {"fleet.scenario_hit_ratio", "ratio"},
		{"core.percentiles_us", "us"},
		{"runtime.alloc_kb_per_req", "KiB"}, {"runtime.mallocs_per_req", "count"}, {"runtime.gc_cpu_share", "ratio"},
	}
	for _, id := range sx4bench.Experiments() {
		out = append(out, struct{ name, unit string }{"sx4bench.exp." + id + "_ms", "ms"})
	}
	return append(out, []struct{ name, unit string }{
		{"sched.speedup", "ratio"}, {"layer_coverage", "ratio"}, {"trace_overhead", "ratio"},
		{"trace.ncar_spans", "count"}, {"trace.fleet_spans", "count"},
	}...)
}

// replayRuns is how many traced replays a run makes: the paper replay
// gives one sample per experiment, so it runs in several fresh
// processes.
var replayRuns = map[string]int{"paper": 5}

// runTraced makes the traced replays in fresh processes, one more with
// spans off for trace_overhead, and builds the per-layer metrics.
func runTraced(p *plan, o opts, r *workloadRun, g *gate) (map[string]metric, error) {
	var on []replayOut
	for i := 0; i < max(1, replayRuns[p.Workload]); i++ {
		var out replayOut
		if _, err := spawn(o, &out, "--child", "replay", "--spans=true"); err != nil {
			return nil, err
		}
		g.matchDigests("traced replay", out.Digests)
		on = append(on, out)
	}
	var off replayOut
	if _, err := spawn(o, &off, "--child", "replay", "--spans=false"); err != nil {
		return nil, err
	}
	g.matchDigests("untraced replay", off.Digests)

	layer := func(name string) (layerStat, bool) {
		var xs []float64
		var st layerStat
		for _, out := range on {
			if l, ok := out.Layers[name]; ok {
				xs = append(xs, l.MedianUS)
				st = l
			}
		}
		if len(xs) == 0 {
			return st, false
		}
		st.MedianUS = median(xs)
		return st, true
	}
	m := map[string]metric{}
	for k, v := range r.counts {
		m[k] = v
	}
	var pathUS float64
	for _, lm := range layerMetrics() {
		if _, ok := m[lm.name]; ok {
			continue
		}
		var v float64
		switch {
		case strings.HasSuffix(lm.name, "_us"):
			st, _ := layer(strings.TrimSuffix(lm.name, "_us"))
			v = st.MedianUS
		case strings.HasPrefix(lm.name, "sx4bench.exp."):
			st, _ := layer(strings.TrimSuffix(lm.name, "_ms"))
			v = st.MedianUS / 1e3
		default:
			v = on[0].Values[lm.name]
		}
		m[lm.name] = metric{v, lm.unit}
	}
	names := make([]string, 0, len(on[0].Layers))
	for name := range on[0].Layers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st, _ := layer(name)
		if name == "request" || name == "fill" || st.Probe {
			continue
		}
		pathUS += st.MedianUS * st.PerReq
	}
	if p.Workload != "paper" {
		rt, _ := layer("http.roundtrip")
		pathUS += rt.MedianUS
	}
	m["sched.speedup"] = metric{r.speedup, "ratio"}
	m["layer_coverage"] = metric{pathUS / 1e3 / r.closedMedianMS, "ratio"}
	m["trace_overhead"] = metric{on[0].WallMS / off.WallMS, "ratio"}
	m["trace.ncar_spans"] = metric{float64(on[0].Spans["ncar"]), "count"}
	m["trace.fleet_spans"] = metric{float64(on[0].Spans["fleet"]), "count"}
	return m, nil
}
