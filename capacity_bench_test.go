// The fleet capacity scaling benchmark: a memo-cold 10 000-scenario
// Monte Carlo over the canonical fleet, the embarrassingly-parallel
// workload the capacity engine's ForEachGrain fan-out exists for.
// Sub-benchmarks sweep the worker count over {1, GOMAXPROCS}, never
// more workers than the host runs at once; each iteration builds a
// fresh Engine so every scenario simulates cold — a shared memo would
// let later variants replay earlier variants' work and fake the
// scaling curve. `make bench-capacity` pins the curve in
// BENCH_CAPACITY.json. Every variant cross-checks the report checksum:
// parallelism must not change a single bit.
package sx4bench_test

import (
	"fmt"
	"runtime"
	"testing"

	"sx4bench/internal/fleet"
	"sx4bench/internal/ncar"

	_ "sx4bench/internal/machine" // register the fleet's machine models
)

func BenchmarkCapacityMonteCarlo(b *testing.B) {
	n := 10000
	if testing.Short() {
		n = 1000
	}
	nodes, err := fleet.ParseSpec(ncar.CanonicalFleetSpec)
	if err != nil {
		b.Fatal(err)
	}
	cfg := fleet.Config{
		Nodes:     nodes,
		Mixes:     fleet.CanonicalMixes(),
		Scenarios: n,
		Seed:      fleet.DefaultSeed,
	}
	sweep := []int{1}
	if procs := runtime.GOMAXPROCS(0); procs > 1 {
		sweep = append(sweep, procs)
	}
	var want uint64
	for _, workers := range sweep {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var eng fleet.Engine
				rep, err := eng.MonteCarlo(cfg, workers)
				if err != nil {
					b.Fatal(err)
				}
				if want == 0 {
					want = rep.Checksum
				} else if rep.Checksum != want {
					b.Fatalf("report checksum diverged: %016x != %016x", rep.Checksum, want)
				}
			}
			b.ReportMetric(float64(n)/b.Elapsed().Seconds()*float64(b.N), "scenarios/s")
		})
	}
}
