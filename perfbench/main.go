// Command perfbench is the repository benchmark: seeded workloads over
// an in-process sx4d (run-hot, sweep-cold, capacity) and over the
// paper-reproduction path (paper).
//
//	bash perfbench/run.sh --workload run-hot --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics; with --trace 1 it carries the per-layer
// metrics, which come from a traced replay in a fresh process. The line
// before it records the host. A run whose outputs fail the correctness
// gate prints "correct": false and exits 1. README.md records why each
// workload exists and what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// opts are the command-line settings one run and its child processes
// share.
type opts struct {
	workload string
	seed     uint64
	seconds  float64
	nproc    int
	root     string // checkout root: the golden files live under it
	// handler builds the daemon under test and setupChildren is the
	// number of fresh-process set-ups besides the run's own; tests
	// substitute a faulty handler and make no child processes.
	handler       func() http.Handler
	setupChildren int
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o opts
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", refSeconds, "run size; the request lists are sized for this many seconds on a 2-CPU host")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced replay")
	child := fs.String("child", "", "internal: run as a child process (setup, paper, replay)")
	workers := fs.Int("workers", 0, "internal: worker count of a paper sample")
	spans := fs.Bool("spans", true, "internal: record spans in a replay")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.nproc = runtime.NumCPU()
	o.handler = sx4d
	o.setupChildren = setupSamples - 1
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	o.root = wd
	if o.seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if *child != "" {
		out, err := runChild(*child, o, *workers, *spans)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench %s child: %v\n", *child, err)
			return 1
		}
		if err := json.NewEncoder(stdout).Encode(out); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	p, err := newPlan(o.workload, o.seed, o.seconds, o.nproc)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if err := json.NewEncoder(stdout).Encode(map[string]any{"host": hostRecord(o)}); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res, err := runWorkload(p, o, *trace == 1, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for k, m := range res.Metrics {
		if math.IsInf(m.Value, 0) || math.IsNaN(m.Value) {
			m.Value = math.MaxFloat64 // a failed request counts as +Inf; JSON has no Inf
			res.Metrics[k] = m
		}
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func runWorkload(p *plan, o opts, traced bool, stderr io.Writer) (result, error) {
	g := newGate()
	var (
		r   *workloadRun
		err error
	)
	if p.Workload == "paper" {
		r, err = runPaper(p, o, g)
	} else {
		r, err = runHTTP(p, o, g)
	}
	if err != nil {
		return result{}, err
	}
	res := result{Attempted: r.attempted, Metrics: r.endToEnd}
	if traced {
		layers, err := runTraced(p, o, r, g)
		if err != nil {
			return result{}, err
		}
		res.Metrics = layers
	}
	res.Failed = r.failed + g.failed
	res.Failed = min(res.Failed, res.Attempted)
	res.Correct = g.failed == 0 && r.failed == 0
	for _, m := range g.msgs {
		fmt.Fprintln(stderr, "perfbench: correctness:", m)
	}
	return res, nil
}

// workloadRun is what the untraced run hands to the metric builders.
type workloadRun struct {
	attempted, failed int
	endToEnd          map[string]metric
	counts            map[string]metric // per-layer rows the untraced run measures
	closedMedianMS    float64           // layer_coverage denominator
	speedup           float64
}

func hostRecord(o opts) map[string]any {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu_model":  model,
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
	}
}

// spawn runs this binary as a child process and decodes the JSON object
// it prints. It returns only once the child has exited.
func spawn(o opts, into any, extra ...string) (time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	args := append([]string{
		"--workload", o.workload, "--seed", fmt.Sprint(o.seed), "--seconds", fmt.Sprint(o.seconds),
	}, extra...)
	cmd := exec.Command(exe, args...)
	cmd.Dir = o.root
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	out, err := cmd.Output()
	wall := time.Since(t0)
	if err != nil {
		return wall, fmt.Errorf("child %v: %w", extra, err)
	}
	if err := json.Unmarshal(out, into); err != nil {
		return wall, fmt.Errorf("child %v: decoding %q: %w", extra, out, err)
	}
	return wall, nil
}

func runChild(kind string, o opts, workers int, spans bool) (any, error) {
	switch kind {
	case "setup":
		p, err := newPlan(o.workload, o.seed, o.seconds, o.nproc)
		if err != nil {
			return nil, err
		}
		d, dur, err := runSetup(o.handler, o.nproc, p.Setup, newGate())
		if err != nil {
			return nil, err
		}
		return map[string]float64{"setup_s": dur.Seconds()}, d.stop()
	case "paper":
		if workers < 1 || workers > o.nproc {
			return nil, fmt.Errorf("workers %d outside [1, %d]", workers, o.nproc)
		}
		return paperSample(workers)
	case "replay":
		return replayChild(o, spans)
	}
	return nil, fmt.Errorf("unknown child %q", kind)
}

const setupSamples = 9 // fresh-process set-ups per run; setup_s is their median

// runHTTP runs one daemon workload: set-up, then the open loop (run-hot
// only), the closed loop over nproc connections and the serial pass.
func runHTTP(p *plan, o opts, g *gate) (*workloadRun, error) {
	var setups []float64
	for i := 0; i < o.setupChildren; i++ {
		var out map[string]float64
		if _, err := spawn(o, &out, "--child", "setup"); err != nil {
			return nil, err
		}
		setups = append(setups, out["setup_s"])
	}
	d, setup, err := runSetup(o.handler, o.nproc, p.Setup, g)
	if err != nil {
		return nil, err
	}
	setups = append(setups, setup.Seconds())

	st0, err := d.stats()
	if err != nil {
		d.stop()
		return nil, err
	}
	rt0 := readRuntime()
	var open, closed, serial phase
	for k := 0; k < chunks; k++ {
		if len(p.Open) > 0 {
			open.add(openLoop(d, chunk(p.Open, k), p.Conns, g))
		}
		lists := make([][]request, len(p.Closed))
		for c := range p.Closed {
			lists[c] = chunk(p.Closed[c], k)
		}
		closed.add(closedLoop(d, lists, g))
		serial.add(closedLoop(d, [][]request{chunk(p.Serial, k)}, g))
	}
	rt1 := readRuntime()
	st1, err := d.stats()
	if err != nil {
		d.stop()
		return nil, err
	}
	sent := open.sent + closed.sent + serial.sent
	p.Open, p.Closed, p.Serial = nil, nil, nil // heap_mb counts the daemon, not the request lists
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	if err := d.stop(); err != nil {
		return nil, err
	}
	switch p.Workload {
	case "run-hot", "sweep-cold":
		g.checkGolden(o.root)
	case "capacity":
		g.checkCapacity(o.nproc)
	}

	lat := closed
	if len(p.Open) > 0 {
		lat = open
	}
	r := &workloadRun{attempted: sent, closedMedianMS: median(closed.latMS)}
	r.speedup = closed.rate() / serial.rate()
	r.endToEnd = map[string]metric{
		"latency_p50_ms":   {percentile(lat.latMS, 50), "ms"},
		"latency_p99_ms":   {percentile(lat.latMS, 99), "ms"},
		"throughput_rps":   {closed.rate(), "req/s"},
		"heap_mb":          {float64(mem.HeapAlloc) / (1 << 20), "MiB"},
		"setup_s":          {median(setups), "s"},
		"runall_ms":        {ms(closed.listTime()), "ms"},
		"runall_serial_ms": {ms(serial.listTime()), "ms"},
	}
	lag := lat.lagMS
	q := float64(max(1, sent))
	r.counts = map[string]metric{
		"loadgen.lag_p50_ms":       {percentile(lag, 50), "ms"},
		"loadgen.lag_p99_ms":       {percentile(lag, 99), "ms"},
		"serve.hit_ratio":          {ratio(st1.CacheHits-st0.CacheHits, st1.RunQueries-st0.RunQueries+st1.CapacityQueries-st0.CapacityQueries), "ratio"},
		"serve.coalesced_ratio":    {ratio(st1.Coalesced-st0.Coalesced, st1.Coalesced-st0.Coalesced+st1.RunsExecuted-st0.RunsExecuted), "ratio"},
		"serve.cache_entries":      {float64(st1.CacheEntries), "count"},
		"serve.rejected":           {float64(st1.Shed + st1.QueueTimeouts + st1.QueueCancelled), "count"},
		"target.memo_hit_ratio":    {ratio(st1.MemoHits-st0.MemoHits, st1.MemoHits-st0.MemoHits+st1.MemoMisses-st0.MemoMisses), "ratio"},
		"fleet.scenario_hit_ratio": {ratio(st1.CapacityScenarioHits-st0.CapacityScenarioHits, st1.CapacityScenarioHits-st0.CapacityScenarioHits+st1.CapacityScenariosRun-st0.CapacityScenariosRun), "ratio"},
		"runtime.alloc_kb_per_req": {(rt1.allocBytes - rt0.allocBytes) / 1024 / q, "KiB"},
		"runtime.mallocs_per_req":  {(rt1.mallocs - rt0.mallocs) / q, "count"},
		"runtime.gc_cpu_share":     {(rt1.gcCPU - rt0.gcCPU) / math.Max(rt1.cpu-rt0.cpu, 1e-9), "ratio"},
	}
	return r, nil
}

func (d *daemon) stats() (statsWire, error) {
	a := d.send(http.MethodGet, "/v1/stats", nil, nil)
	var st statsWire
	if a.err != nil || a.status != 200 {
		return st, fmt.Errorf("GET /v1/stats: status %d: %v", a.status, a.err)
	}
	return st, json.Unmarshal(a.body, &st)
}

// statsWire holds the /v1/stats wire fields the benchmark reads.
type statsWire struct {
	RunQueries           uint64 `json:"run_queries"`
	CacheHits            uint64 `json:"cache_hits"`
	Coalesced            uint64 `json:"coalesced"`
	RunsExecuted         uint64 `json:"runs_executed"`
	CacheEntries         int    `json:"cache_entries"`
	Shed                 uint64 `json:"shed"`
	QueueTimeouts        uint64 `json:"queue_timeouts"`
	QueueCancelled       uint64 `json:"queue_cancelled"`
	MemoHits             uint64 `json:"memo_hits"`
	MemoMisses           uint64 `json:"memo_misses"`
	CapacityQueries      uint64 `json:"capacity_queries"`
	CapacityScenariosRun uint64 `json:"capacity_scenarios_run"`
	CapacityScenarioHits uint64 `json:"capacity_scenario_cache_hits"`
}

var inf = math.Inf(1)

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func countInf(xs []float64) int {
	n := 0
	for _, x := range xs {
		if math.IsInf(x, 1) {
			n++
		}
	}
	return n
}

// percentile is the nearest-rank percentile; +Inf samples sort last.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// quietPct is the percentile over paper samples that paper's timing
// metrics report. Other tenants of the reference host slow a sample
// process down by up to a fifth, for seconds to minutes at a time, and
// never speed one up: the faster samples measure the code, the slower
// ones the neighbours. (Daemon workloads report whole-list figures
// instead: their chunks share one process whose garbage-collection
// cycles, not the neighbours, decide which chunks are fast.)
const quietPct = 10
