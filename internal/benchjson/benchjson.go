// Package benchjson parses `go test -bench` text output into the
// BENCH_BASELINE.json baseline layout. It is the library behind
// cmd/benchjson, split out so the parser is testable and fuzzable (the
// FuzzReportParse target in internal/check drives it with arbitrary
// input): benchmark reports arrive from shell pipelines and must never
// panic the converter, however mangled.
package benchjson

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark line.
type Result struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  *int64             `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64             `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Baseline is the file layout.
type Baseline struct {
	GOOS   string `json:"goos,omitempty"`
	GOARCH string `json:"goarch,omitempty"`
	CPU    string `json:"cpu,omitempty"`
	// NumCPU is the recording host's logical CPU count (cmd/benchjson
	// runs on that host and reads it), and GOMAXPROCS the value the
	// benchmarks ran under (see GOMAXPROCS), so a worker count can be
	// read against the cores that ran it.
	NumCPU     int      `json:"num_cpu,omitempty"`
	GOMAXPROCS int      `json:"gomaxprocs,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
	// RunAllSpeedup is serial ns/op divided by parallel ns/op for the
	// BenchmarkRunAllSerial / BenchmarkRunAllParallel pair.
	RunAllSpeedup float64 `json:"runall_parallel_speedup,omitempty"`
	// CapacitySpeedup is the BenchmarkCapacityMonteCarlo workers=1
	// ns/op divided by that of its largest workers=N row with N > 1:
	// how the fleet capacity Monte Carlo scales across workers on the
	// recording host.
	CapacitySpeedup float64 `json:"capacity_parallel_speedup,omitempty"`
}

// speedups collects the records the derived summary fields come from:
// a ratio when both ends were seen, zero otherwise, with the last
// record of a name winning.
type speedups struct {
	serial, parallel       float64 // BenchmarkRunAllSerial, BenchmarkRunAllParallel
	capSerial, capParallel float64 // BenchmarkCapacityMonteCarlo workers=1, workers=capWorkers
	capWorkers             int
}

// observe folds one record in.
func (s *speedups) observe(r Result) {
	name := strings.SplitN(r.Name, "-", 2)[0]
	switch name {
	case "BenchmarkRunAllSerial":
		s.serial = r.NsPerOp
	case "BenchmarkRunAllParallel":
		s.parallel = r.NsPerOp
	}
	w, ok := strings.CutPrefix(name, "BenchmarkCapacityMonteCarlo/workers=")
	if !ok {
		return
	}
	switch n, err := strconv.Atoi(w); {
	case err != nil:
	case n == 1:
		s.capSerial = r.NsPerOp
	case n > 1 && n >= s.capWorkers:
		s.capWorkers, s.capParallel = n, r.NsPerOp
	}
}

func (s *speedups) runAll() float64   { return deriveSpeedup(s.serial, s.parallel) }
func (s *speedups) capacity() float64 { return deriveSpeedup(s.capSerial, s.capParallel) }

// deriveSpeedup is the summary rule: a ratio when both ends were seen,
// zero otherwise.
func deriveSpeedup(num, den float64) float64 {
	if num > 0 && den > 0 {
		return num / den
	}
	return 0
}

// Parse reads `go test -bench` text output and collects every
// benchmark line, the goos/goarch/cpu header context, and the RunAll
// and capacity speedup summaries. Unparseable lines are skipped, as
// `go test` interleaves benchmark lines with test chatter; an input
// with no benchmark lines at all is an error.
func Parse(r io.Reader) (Baseline, error) {
	var b Baseline
	var sp speedups
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			b.GOOS = strings.TrimPrefix(line, "goos: ")
			continue
		case strings.HasPrefix(line, "goarch: "):
			b.GOARCH = strings.TrimPrefix(line, "goarch: ")
			continue
		case strings.HasPrefix(line, "cpu: "):
			b.CPU = strings.TrimPrefix(line, "cpu: ")
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		r, ok := ParseLine(line)
		if !ok {
			continue
		}
		b.Benchmarks = append(b.Benchmarks, r)
		sp.observe(r)
	}
	if err := sc.Err(); err != nil {
		return b, err
	}
	if len(b.Benchmarks) == 0 {
		return b, fmt.Errorf("no benchmark lines on stdin")
	}
	b.RunAllSpeedup = sp.runAll()
	b.CapacitySpeedup = sp.capacity()
	return b, nil
}

// GOMAXPROCS returns the GOMAXPROCS value records ran under, read from
// the "-N" suffix go test appends to every benchmark name when
// GOMAXPROCS is N > 1: the largest N when every name carries one, and
// 1 when any name has none.
func GOMAXPROCS(records []Result) int {
	procs := 1
	for _, r := range records {
		i := strings.LastIndexByte(r.Name, '-')
		n, err := strconv.Atoi(r.Name[i+1:])
		if i < 0 || err != nil || n < 1 {
			return 1
		}
		procs = max(procs, n)
	}
	return procs
}

// Validate checks the structural invariants of a baseline: at least
// one record, every record named, and every number finite. JSON
// cannot spell NaN or Inf, so cmd/benchjson validates the baseline it
// built in memory before Marshal, naming the offending record.
func Validate(b Baseline) error {
	if len(b.Benchmarks) == 0 {
		return fmt.Errorf("baseline has no benchmark records")
	}
	for _, res := range b.Benchmarks {
		if res.Name == "" {
			return fmt.Errorf("baseline record without a name")
		}
		if !finite(res.NsPerOp) || res.Iterations < 0 {
			return fmt.Errorf("baseline %s: bad ns/op or iterations", res.Name)
		}
		units := make([]string, 0, len(res.Metrics))
		for unit := range res.Metrics {
			units = append(units, unit)
		}
		sort.Strings(units)
		for _, unit := range units {
			if !finite(res.Metrics[unit]) {
				return fmt.Errorf("baseline %s: non-finite metric %q", res.Name, unit)
			}
		}
	}
	if !finite(b.RunAllSpeedup) {
		return fmt.Errorf("baseline: non-finite runall_parallel_speedup")
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// ParseLine reads one "BenchmarkX-8  123  456 ns/op  7 B/op ..." line.
func ParseLine(line string) (Result, bool) {
	f := strings.Fields(line)
	if len(f) < 4 {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: f[0], Iterations: iters}
	// Remaining fields come in "<value> <unit>" pairs.
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			// ParseFloat accepts "NaN" and "Inf", which a benchmark
			// line never legitimately contains and which would poison
			// the JSON baseline (json.Marshal rejects non-finite).
			return Result{}, false
		}
		switch unit := f[i+1]; unit {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			n := int64(v)
			r.BytesPerOp = &n
		case "allocs/op":
			n := int64(v)
			r.AllocsPerOp = &n
		default:
			if r.Metrics == nil {
				r.Metrics = map[string]float64{}
			}
			r.Metrics[unit] = v
		}
	}
	if r.NsPerOp == 0 && r.Metrics == nil {
		return Result{}, false
	}
	return r, true
}
