package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"strings"

	"sx4bench/internal/ncar"
)

// RunRequest is the wire form of one simulation query: which suite
// members to run on which registered machine, under what processor
// allocation and fault schedule. It is the unit of content addressing:
// two requests with the same canonical form and the same machine
// configuration are the same query and share one cached response.
type RunRequest struct {
	// Machine is a registry name ("sx4-32", "ymp", ...); matching is
	// case- and whitespace-insensitive, like the -machine flag.
	Machine string `json:"machine"`
	// Benchmarks lists suite members by exact name. Empty, or the
	// single element "all", means the whole suite in paper order.
	Benchmarks []string `json:"benchmarks,omitempty"`
	// CPUs is the processor allocation for the application benchmarks;
	// 0 means the machine's full CPU count.
	CPUs int `json:"cpus,omitempty"`
	// Workers is the suite-level parallelism of the evaluation (0 =
	// GOMAXPROCS, 1 = serial). It never changes a result byte, so it is
	// excluded from the cache key: a query answered at -workers 8 is a
	// cache hit for the same query at -workers 1.
	Workers int `json:"workers,omitempty"`
	// FaultSeed, when nonzero, runs every member under the seeded
	// canonical fault schedule through the resilient retry loop.
	FaultSeed int64 `json:"fault_seed,omitempty"`
	// DeadlineSeconds bounds each member's simulated completion time
	// under faults; MaxAttempts caps its retry count. Both follow
	// ncar.ResilientOpts zero-value conventions.
	DeadlineSeconds float64 `json:"deadline_seconds,omitempty"`
	MaxAttempts     int     `json:"max_attempts,omitempty"`
}

// Request-shape bounds: far above anything meaningful, far below
// anything that could turn one malformed request into a denial of
// service.
const (
	maxCPUs       = 1 << 16
	maxWorkers    = 1 << 12
	maxAttemptCap = 1000
	maxBenchmarks = 256
)

// DecodeRunRequest parses one JSON-encoded run request strictly:
// unknown fields, trailing content, out-of-range numbers and unknown
// benchmark names are all errors, never silent defaults — a mistyped
// field in a sweep line must fail that line, not quietly run the whole
// suite. The plain shape clients send is read by decodePlainRun;
// everything else goes to encoding/json, whose rules and error texts
// are the contract. The decoder never panics on arbitrary input
// (FuzzServeRequest pins this).
func DecodeRunRequest(data []byte) (RunRequest, error) {
	r, ok := decodePlainRun(data)
	if !ok {
		// A variable of its own: the pointer decodeStrict takes escapes,
		// and sharing r with it would move r to the heap on the plain
		// path too.
		var slow RunRequest
		if err := decodeStrict(data, &slow); err != nil {
			return RunRequest{}, fmt.Errorf("serve: decoding run request: %w", err)
		}
		r = slow
	}
	if err := r.Validate(); err != nil {
		return RunRequest{}, err
	}
	return r, nil
}

// decodeStrict decodes data, which must hold one JSON value and
// nothing after it but white space, into v; an object field v does not
// have is an error. Decoder.More alone cannot see trailing content: it
// reports false before a stray ']' or '}'.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing content after the request")
	}
	return nil
}

// Validate checks the request's shape without touching the machine
// registry (unknown machines surface as 404 at resolution time, not
// 400 here). JSON itself cannot spell NaN or Inf, but requests are
// also built in memory, so the finiteness checks keep both paths
// honest.
func (r RunRequest) Validate() error {
	if strings.TrimSpace(r.Machine) == "" {
		return fmt.Errorf("serve: run request names no machine")
	}
	if r.CPUs < 0 || r.CPUs > maxCPUs {
		return fmt.Errorf("serve: cpus %d out of range [0, %d]", r.CPUs, maxCPUs)
	}
	if r.Workers < 0 || r.Workers > maxWorkers {
		return fmt.Errorf("serve: workers %d out of range [0, %d]", r.Workers, maxWorkers)
	}
	if r.MaxAttempts < 0 || r.MaxAttempts > maxAttemptCap {
		return fmt.Errorf("serve: max_attempts %d out of range [0, %d]", r.MaxAttempts, maxAttemptCap)
	}
	if math.IsNaN(r.DeadlineSeconds) || math.IsInf(r.DeadlineSeconds, 0) || r.DeadlineSeconds < 0 {
		return fmt.Errorf("serve: deadline_seconds must be finite and non-negative")
	}
	if len(r.Benchmarks) > maxBenchmarks {
		return fmt.Errorf("serve: %d benchmarks exceeds the %d-entry cap", len(r.Benchmarks), maxBenchmarks)
	}
	for _, name := range r.Benchmarks {
		if name == "all" {
			if len(r.Benchmarks) != 1 {
				return fmt.Errorf("serve: benchmark \"all\" must be the only list entry")
			}
			continue
		}
		if _, err := ncar.ByName(name); err != nil {
			return fmt.Errorf("serve: %w", err)
		}
	}
	return nil
}

// Canonical returns the request in cache-key form: machine name
// normalized the way the registry matches it, "all" and the empty list
// folded to the explicit full suite, and the knobs that cannot change
// a result byte zeroed — workers always, the deadline and attempt cap
// of a fault-free run, and the sign of a zero deadline. Two requests
// with equal canonical forms are the same query.
func (r RunRequest) Canonical() RunRequest {
	out := r
	out.Machine = strings.ToLower(strings.TrimSpace(r.Machine))
	out.Workers = 0
	if r.FaultSeed == 0 {
		out.DeadlineSeconds, out.MaxAttempts = 0, 0
	}
	if out.DeadlineSeconds == 0 {
		// Folds −0 into +0: ncar reads either as no deadline, but
		// Fingerprint hashes the float's bits.
		out.DeadlineSeconds = 0
	}
	if len(r.Benchmarks) == 0 || (len(r.Benchmarks) == 1 && r.Benchmarks[0] == "all") {
		out.Benchmarks = nil
		for _, b := range ncar.Suite() {
			out.Benchmarks = append(out.Benchmarks, b.Name)
		}
	} else {
		out.Benchmarks = append([]string(nil), r.Benchmarks...)
	}
	return out
}

// Fingerprint content-addresses the canonical request against one
// machine configuration: an FNV-1a fold of the target's configuration
// fingerprint, the benchmark identity list, and every allocation and
// fault knob that can reach a result byte. Workers is deliberately
// absent — Canonical zeroes it, and a fault-free run's resilience
// knobs — so those spellings share cache entries.
func (r RunRequest) Fingerprint(machineFP uint64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	word(machineFP)
	for _, name := range r.Benchmarks {
		h.Write([]byte(name))
		h.Write([]byte{0})
	}
	word(uint64(r.CPUs))
	word(uint64(r.FaultSeed))
	word(math.Float64bits(r.DeadlineSeconds))
	word(uint64(r.MaxAttempts))
	return h.Sum64()
}
