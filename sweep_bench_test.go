// The cold-sweep scaling benchmark: a cold 10 000-scenario sweep across
// every registered machine, the workload the compiled-trace route and
// its sharded per-machine cache exist for. Sub-benchmarks sweep
// the worker count (1/4/8), so `make bench-sweep` pins the scaling
// curve in BENCH_SWEEP.json. Every variant cross-checks the sweep
// checksum: parallelism must not change a single bit.
package sx4bench_test

import (
	"fmt"
	"testing"

	"sx4bench/internal/ncar"
)

func BenchmarkColdSweep10k(b *testing.B) {
	n := 10000
	if testing.Short() {
		n = 1000
	}
	scenarios := ncar.SweepScenarios(n)
	var want ncar.SweepResult
	for _, workers := range []int{1, 4, 8} {
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
