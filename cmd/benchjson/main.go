// Command benchjson converts `go test -bench` text output on stdin
// into a JSON baseline file. Each benchmark line becomes one record
// with ns/op, allocation counters and any custom metrics; the header's
// goos/goarch/cpu context rides along with this host's CPU count and
// the GOMAXPROCS the names carry (run it on the host that ran the
// benchmarks), and the RunAll serial/parallel pair is summarized as a
// speedup ratio when both are present. The parsing lives in
// internal/benchjson.
//
// Usage:
//
//	go test -run '^$' -bench=. -benchmem . | benchjson -o BENCH_BASELINE.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"

	"sx4bench/internal/benchjson"
	"sx4bench/internal/core"
)

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()

	b, err := benchjson.Parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	b.NumCPU = runtime.NumCPU()
	b.GOMAXPROCS = benchjson.GOMAXPROCS(b.Benchmarks)
	if err := benchjson.Validate(b); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	// Atomic: an interrupted run must not truncate the baseline the
	// bench-compare gate reads.
	if err := core.WriteFileAtomic(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
