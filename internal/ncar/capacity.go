package ncar

import (
	"fmt"

	"sx4bench/internal/core"
	"sx4bench/internal/fleet"
)

// CanonicalFleetSpec is the fleet the capacity artifact plans: two
// flagship SX-4/32 nodes backed by the strongest comparison machine,
// the heterogeneous cluster an NCAR-sized centre would actually run.
const CanonicalFleetSpec = "sx4-32x2,c90"

// CanonicalCapacityScenarios sizes the golden-pinned Monte Carlo: 24
// scenarios cover every canonical mix with both full and degraded
// fleets (the scenario derivation rotates mixes mod 3 and degrades
// every fourth draw) while keeping the artifact render fast.
const CanonicalCapacityScenarios = 24

// capacityEngine is the package-level Monte Carlo engine: its
// per-scenario memo is shared by every artifact render, CLI query and
// benchmark column in the process, so repeated capacity questions
// against overlapping scenario sets re-simulate nothing.
var capacityEngine fleet.Engine

// CapacityReport runs (or replays from the memo) a capacity Monte
// Carlo: `scenarios` week-long draws over the fleet described by spec,
// under the canonical workload mixes, seeded by seed. workers follows
// the repo convention (0 = GOMAXPROCS, 1 = serial); the report is
// byte-identical for every worker count.
func CapacityReport(spec string, scenarios int, seed int64, workers int) (fleet.Report, error) {
	nodes, err := fleet.ParseSpec(spec)
	if err != nil {
		return fleet.Report{}, fmt.Errorf("ncar: capacity: %w", err)
	}
	cfg := fleet.Config{
		Nodes:     nodes,
		Mixes:     fleet.CanonicalMixes(),
		Scenarios: scenarios,
		Seed:      seed,
	}
	rep, err := capacityEngine.MonteCarlo(cfg, workers)
	if err != nil {
		return fleet.Report{}, fmt.Errorf("ncar: capacity: %w", err)
	}
	return rep, nil
}

// CapacityTableFor renders one capacity Monte Carlo as a table: a row
// per workload mix (medians across scenarios of the per-scenario
// nearest-rank latency percentiles, makespan medians and maxima, and
// the recovery accounting) plus a fleet-wide total row. The report
// checksum rides in the title, so the golden pins the full
// per-scenario result stream, not just the summaries.
func CapacityTableFor(spec string, scenarios int, seed int64, workers int) (core.Table, error) {
	rep, err := CapacityReport(spec, scenarios, seed, workers)
	if err != nil {
		return core.Table{}, err
	}
	t := core.Table{
		ID: "capacity",
		Title: fmt.Sprintf("Fleet capacity planning: %s, %d week-long scenarios, seed %d (checksum %016x)",
			spec, scenarios, seed, rep.Checksum),
		Headers: []string{
			"Mix", "Pattern", "Scen", "Degr", "Jobs",
			"p50 s", "p95 s", "p99 s", "Mkspan p50 h", "Mkspan max h",
			"Recovered", "Failed", "Lost",
		},
	}
	var total fleet.MixSummary
	for _, ms := range rep.Mixes {
		t.Rows = append(t.Rows, []string{
			ms.Mix,
			ms.Pattern,
			fmt.Sprintf("%d", ms.Scenarios),
			fmt.Sprintf("%d", ms.Degraded),
			fmt.Sprintf("%d", ms.Jobs),
			core.Fixed(ms.P50, 1),
			core.Fixed(ms.P95, 1),
			core.Fixed(ms.P99, 1),
			core.Fixed(ms.MakespanP50/3600, 2),
			core.Fixed(ms.MakespanMax/3600, 2),
			fmt.Sprintf("%d", ms.Recovered),
			fmt.Sprintf("%d", ms.Failed),
			fmt.Sprintf("%d", ms.Lost),
		})
		total.Scenarios += ms.Scenarios
		total.Degraded += ms.Degraded
		total.Jobs += ms.Jobs
		total.Recovered += ms.Recovered
		total.Failed += ms.Failed
		total.Lost += ms.Lost
		if ms.MakespanMax > total.MakespanMax {
			total.MakespanMax = ms.MakespanMax
		}
	}
	t.Rows = append(t.Rows, []string{
		"all", "-",
		fmt.Sprintf("%d", total.Scenarios),
		fmt.Sprintf("%d", total.Degraded),
		fmt.Sprintf("%d", total.Jobs),
		"-", "-", "-",
		"-",
		core.Fixed(total.MakespanMax/3600, 2),
		fmt.Sprintf("%d", total.Recovered),
		fmt.Sprintf("%d", total.Failed),
		fmt.Sprintf("%d", total.Lost),
	})
	return t, nil
}

// CapacityTable renders the canonical golden-pinned capacity artifact.
func CapacityTable() (core.Table, error) {
	return CapacityTableFor(CanonicalFleetSpec, CanonicalCapacityScenarios, fleet.DefaultSeed, 0)
}
