package main

import (
	"fmt"
	"hash/fnv"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"sx4bench"
	"sx4bench/internal/check"
	"sx4bench/internal/target"
)

// paperOut is what one fresh-process paper sample reports.
type paperOut struct {
	MS         float64 `json:"ms"` // RunAllWorkers wall time in the child
	HeapMB     float64 `json:"heap_mb"`
	Digest     uint64  `json:"digest"`
	AllocBytes float64 `json:"alloc_bytes"`
	Mallocs    float64 `json:"mallocs"`
	GCShare    float64 `json:"gc_share"`
}

// paperSample is the body of a paper child: RunAllWorkers on a fresh
// sx4-32 target into a hash, as `figures -exp all` runs it.
func paperSample(workers int) (paperOut, error) {
	tgt, err := target.Lookup("sx4-32")
	if err != nil {
		return paperOut{}, err
	}
	h := fnv.New64a()
	rt0 := readRuntime()
	t0 := time.Now()
	err = sx4bench.RunAllWorkers(h, tgt, workers)
	d := time.Since(t0)
	rt1 := readRuntime()
	if err != nil {
		return paperOut{}, err
	}
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return paperOut{
		MS:         ms(d),
		HeapMB:     float64(m.HeapAlloc) / (1 << 20),
		Digest:     h.Sum64(),
		AllocBytes: rt1.allocBytes - rt0.allocBytes,
		Mallocs:    rt1.mallocs - rt0.mallocs,
		GCShare:    (rt1.gcCPU - rt0.gcCPU) / max(rt1.cpu-rt0.cpu, 1e-9),
	}, nil
}

// runPaper runs the paper samples one after another, alternating
// workers = 1 and workers = nproc, then checks the goldens once,
// outside timing, with check.VerifyIDs.
func runPaper(p *plan, o opts, g *gate) (*workloadRun, error) {
	var par, ser, walls, setups, heaps, allocs, mallocs, gcs, lag []float64
	digests := map[uint64]int{}
	failed := 0
	prev := time.Time{}
	for _, w := range p.Paper {
		start := time.Now()
		if !prev.IsZero() {
			lag = append(lag, ms(start.Sub(prev)))
		}
		var out paperOut
		wall, err := spawn(o, &out, "--child", "paper", "--workers", fmt.Sprint(w))
		prev = time.Now()
		if err != nil {
			failed++
			g.mu.Lock()
			g.fail("paper sample at workers=%d: %v", w, err)
			g.mu.Unlock()
			continue
		}
		digests[out.Digest]++
		walls = append(walls, ms(wall))
		setups = append(setups, wall.Seconds()-out.MS/1e3)
		heaps = append(heaps, out.HeapMB)
		n := float64(len(sx4bench.Experiments()))
		allocs = append(allocs, out.AllocBytes/1024/n)
		mallocs = append(mallocs, out.Mallocs/n)
		gcs = append(gcs, out.GCShare)
		if w == 1 {
			ser = append(ser, out.MS)
		}
		if w == p.Conns {
			par = append(par, out.MS)
		}
	}
	mis, err := check.VerifyIDs(filepath.Join(o.root, check.DefaultDir), check.Artifacts())
	g.mu.Lock()
	if len(digests) > 1 {
		g.fail("paper output differs across samples or worker counts: %d distinct digests", len(digests))
	}
	for d := range digests {
		g.first[paperKey] = d // the traced replay must match it
	}
	if err != nil {
		g.fail("check.VerifyIDs: %v", err)
	}
	for _, m := range mis {
		g.fail("check.VerifyIDs: %s", m)
	}
	g.mu.Unlock()
	if len(par) == 0 || len(ser) == 0 {
		return nil, fmt.Errorf("paper: no successful samples at one of the worker counts")
	}
	runallMS, serialMS := percentile(par, quietPct), percentile(ser, quietPct)
	var chunkP50s []float64
	for k := 0; k < chunks; k++ {
		chunkP50s = append(chunkP50s, median(walls[k*len(walls)/chunks:(k+1)*len(walls)/chunks]))
	}
	r := &workloadRun{attempted: len(p.Paper), failed: failed, closedMedianMS: serialMS, speedup: serialMS / runallMS}
	r.endToEnd = map[string]metric{
		"latency_p50_ms":   {percentile(chunkP50s, quietPct), "ms"},
		"latency_p99_ms":   {percentile(walls, 99), "ms"},
		"throughput_rps":   {float64(len(sx4bench.Experiments())) / (runallMS / 1e3), "req/s"},
		"heap_mb":          {median(heaps), "MiB"},
		"setup_s":          {percentile(setups, quietPct), "s"},
		"runall_ms":        {runallMS, "ms"},
		"runall_serial_ms": {serialMS, "ms"},
	}
	r.counts = map[string]metric{
		"loadgen.lag_p50_ms":       {percentile(lag, 50), "ms"},
		"loadgen.lag_p99_ms":       {percentile(lag, 99), "ms"},
		"runtime.alloc_kb_per_req": {median(allocs), "KiB"},
		"runtime.mallocs_per_req":  {median(mallocs), "count"},
		"runtime.gc_cpu_share":     {median(gcs), "ratio"},
	}
	return r, nil
}

// rtSample is a reading of the runtime/metrics counters the benchmark
// reports per request.
type rtSample struct{ allocBytes, mallocs, gcCPU, cpu float64 }

func readRuntime() rtSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return rtSample{
		allocBytes: float64(s[0].Value.Uint64()),
		mallocs:    float64(s[1].Value.Uint64()),
		gcCPU:      s[2].Value.Float64(),
		cpu:        s[3].Value.Float64(),
	}
}
