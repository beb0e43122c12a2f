package fault

import "testing"

func TestNodeSeedDeterministicAndSpread(t *testing.T) {
	if a, b := NodeSeed(1996, 3), NodeSeed(1996, 3); a != b {
		t.Fatalf("NodeSeed(1996,3) not deterministic: %d vs %d", a, b)
	}
	// Distinct nodes of one fleet, and the same node of distinct
	// fleets, must draw distinct seeds.
	seen := map[int64]string{}
	for fleet := int64(1); fleet <= 4; fleet++ {
		for node := 0; node < 8; node++ {
			s := NodeSeed(fleet, node)
			if prev, dup := seen[s]; dup {
				t.Fatalf("NodeSeed(%d,%d) collides with %s (seed %d)", fleet, node, prev, s)
			}
			seen[s] = "earlier (fleet,node)"
		}
	}
}

func TestNodeSeedNeverPerturbsCanonicalPlan(t *testing.T) {
	// The canonical single-node scenario must be unreachable from a
	// fleet derivation: no small fleet/node pair may alias seed 1996,
	// and Canonical() itself is a pure function of the untouched
	// NewPlan path.
	for fleet := int64(0); fleet <= 2048; fleet++ {
		for node := 0; node < 16; node++ {
			if NodeSeed(fleet, node) == CanonicalSeed {
				t.Fatalf("NodeSeed(%d,%d) aliases the canonical seed", fleet, node)
			}
		}
	}
	a, b := Canonical(), NewPlan(NodeSeed(CanonicalSeed, 0), CanonicalHorizon, CanonicalEvents)
	if len(a.Events) != len(b.Events) {
		return // trivially different
	}
	same := true
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("node 0 of the canonical fleet replays the canonical single-node plan")
	}
}
