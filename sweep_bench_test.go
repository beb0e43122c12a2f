// The cold-sweep scaling benchmark: a cold 10 000-scenario sweep across
// every registered machine, the workload the compiled-trace route and
// its sharded per-machine cache exist for. Sub-benchmarks sweep
// the worker count over {1, GOMAXPROCS}, never more workers than the
// host runs at once, so `make bench-sweep` pins the scaling curve in
// BENCH_SWEEP.json. Every variant cross-checks the sweep checksum:
// parallelism must not change a single bit.
package sx4bench_test

import (
	"fmt"
	"runtime"
	"testing"

	"sx4bench/internal/ncar"
)

func BenchmarkColdSweep10k(b *testing.B) {
	n := 10000
	if testing.Short() {
		n = 1000
	}
	scenarios := ncar.SweepScenarios(n)
	sweep := []int{1}
	if procs := runtime.GOMAXPROCS(0); procs > 1 {
		sweep = append(sweep, procs)
	}
	var want ncar.SweepResult
	for _, workers := range sweep {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				got, err := ncar.Sweep(scenarios, workers)
				if err != nil {
					b.Fatal(err)
				}
				if want.Scenarios == 0 {
					want = got
				} else if got != want {
					b.Fatalf("sweep summary diverged: %+v != %+v", got, want)
				}
			}
			b.ReportMetric(float64(n)/b.Elapsed().Seconds()*float64(b.N), "scenarios/s")
		})
	}
}
