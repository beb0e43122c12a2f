// Package fleet is the capacity-planning layer: N heterogeneous
// modeled nodes — any registry target — standing behind a single
// NQS-style cluster queue, driven by seeded multi-tenant arrival
// processes over week-long simulated horizons, with per-node fault
// plans derived from one fleet seed. It generalizes the paper's
// single-node PRODLOAD experiment to the question operators actually
// ask: how many nodes survive this traffic at this failure rate?
//
// The layering is deliberate. Each node is an internal/superux System
// (the OS model PRODLOAD already runs on), its failure schedule is an
// internal/fault plan drawn at fault.NodeSeed (which keeps the
// canonical single-node plan unperturbed), node shapes come from the
// target registry's specification sheets, and the Monte Carlo fan-out
// runs on internal/core/sched so scenario results are byte-identical
// across worker counts. The concrete machine models are never imported —
// fleet consumes spec sheets and fingerprints, not engines — and the
// layering analyzer plus TestFleetImportAllowlist pin that.
//
// Determinism rules, fleet-wide:
//
//   - every node advances to the same simulated time before any
//     cross-node action (arrival dispatch, migration placement) happens
//     at that time, so the single-node completions-win-ties rule holds
//     across the cluster;
//   - nodes are visited in fleet order (index order) at every step;
//   - all randomness — arrival times, job classes, per-node fault
//     schedules, scenario derivations — flows from SplitMix64 streams
//     keyed by explicit seeds, never the host clock or a global source.
package fleet

import (
	"fmt"
	"strconv"
	"strings"

	"sx4bench/internal/superux"
	"sx4bench/internal/target"
)

// DefaultNodeMemGB stands in for the main-memory capacity of machines
// whose spec sheet the paper never prints (the Table 1 comparators
// carry no memory figure).
const DefaultNodeMemGB = 8.0

// NodeSpec is one fleet node: a registry machine reduced to the facts
// the cluster scheduler needs. The concrete model never crosses into
// this package — a node is its spec sheet plus a fingerprint.
type NodeSpec struct {
	// Machine is the registry name the node was resolved from.
	Machine string
	// Title is the model designation (target.Name()).
	Title string
	// CPUs and MemGB are the node's schedulable capacity.
	CPUs  int
	MemGB float64
	// PerCPUMFLOPS converts a job's work demand into seconds on this
	// node, which is what makes the fleet heterogeneous: the same
	// arrival runs longer on a slower machine.
	PerCPUMFLOPS float64
	// Fingerprint is the underlying target's configuration hash; the
	// Monte Carlo memo keys scenarios on it.
	Fingerprint uint64
}

// ParseSpec resolves a fleet specification string against the machine
// registry: comma-separated entries, each a registry name with an
// optional "xN" replication suffix — "sx4-32x2,c90" is two SX-4/32
// nodes and one C90. The expanded node list is returned in
// specification order, which is the fleet's canonical node order.
func ParseSpec(spec string) ([]NodeSpec, error) {
	// Resolve every entry first, so the node list is sized once. The
	// buffer holds the usual handful of entries without a heap
	// allocation.
	type resolved struct {
		node  NodeSpec
		count int
	}
	var buf [8]resolved
	parsed := buf[:0]
	total := 0
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			return nil, fmt.Errorf("fleet: empty entry in spec %q", spec)
		}
		name, count := entry, 1
		if i := strings.LastIndex(entry, "x"); i > 0 {
			if n, err := strconv.Atoi(entry[i+1:]); err == nil {
				if n < 1 || n > maxFleetNodes {
					return nil, fmt.Errorf("fleet: replication %q out of range [1, %d]", entry, maxFleetNodes)
				}
				name, count = entry[:i], n
			}
		}
		tgt, err := target.Shared(name)
		if err != nil {
			return nil, fmt.Errorf("fleet: spec %q: %w", spec, err)
		}
		parsed = append(parsed, resolved{specOf(strings.ToLower(strings.TrimSpace(name)), tgt), count})
		total += count
	}
	if total > maxFleetNodes {
		return nil, fmt.Errorf("fleet: %d nodes exceeds the %d-node cap", total, maxFleetNodes)
	}
	nodes := make([]NodeSpec, 0, total)
	for _, r := range parsed {
		for range r.count {
			nodes = append(nodes, r.node)
		}
	}
	return nodes, nil
}

// maxFleetNodes bounds a fleet specification: far above any meaningful
// scenario, far below anything that could turn one request into a
// denial of service (the sx4d capacity endpoint parses untrusted
// specs).
const maxFleetNodes = 64

// specOf reduces a resolved target to its node spec; name is the
// normalized registry name.
func specOf(name string, tgt target.Target) NodeSpec {
	spec := tgt.Spec()
	mem := spec.MainMemoryGB
	if mem <= 0 {
		mem = DefaultNodeMemGB
	}
	rate := spec.PeakMFLOPSPerCPU
	if rate <= 0 {
		rate = 100 // a floor so work always converts to finite seconds
	}
	return NodeSpec{
		Machine:      name,
		Title:        tgt.Name(),
		CPUs:         spec.CPUs,
		MemGB:        mem,
		PerCPUMFLOPS: rate,
		Fingerprint:  tgt.Fingerprint(),
	}
}

// resetNodeSystem makes sys the SUPER-UX instance for one node: the
// PRODLOAD resource-block geometry generalized — nodes with eight or
// more processors split into a large batch block and a small
// interactive-sized one (so a CPU failure degrades the node before
// killing it), smaller nodes run a single block.
func resetNodeSystem(sys *superux.System, ns NodeSpec) {
	if ns.CPUs >= 8 {
		aux := ns.CPUs / 4
		sys.Reset(
			superux.ResourceBlock{Name: "rb0", MaxCPUs: ns.CPUs - aux, MemGB: ns.MemGB * 0.75, Policy: superux.FIFO},
			superux.ResourceBlock{Name: "rb1", MaxCPUs: aux, MemGB: ns.MemGB * 0.25, Policy: superux.FIFO},
		)
		return
	}
	sys.Reset(superux.ResourceBlock{Name: "rb0", MaxCPUs: ns.CPUs, MemGB: ns.MemGB, Policy: superux.FIFO})
}
