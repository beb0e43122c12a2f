package fault

import (
	"math"
	"sort"
	"strings"
	"testing"
)

func TestNewPlanDeterministic(t *testing.T) {
	a := NewPlan(42, 100, 16)
	b := NewPlan(42, 100, 16)
	if len(a.Events) != 16 || len(b.Events) != 16 {
		t.Fatalf("want 16 events, got %d and %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs across identical seeds: %v vs %v", i, a.Events[i], b.Events[i])
		}
	}
	c := NewPlan(43, 100, 16)
	same := true
	for i := range a.Events {
		if a.Events[i] != c.Events[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical schedules")
	}
}

func TestNewPlanSortedAndInHorizon(t *testing.T) {
	p := NewPlan(7, 50, 40)
	if !sort.SliceIsSorted(p.Events, func(a, b int) bool { return p.Events[a].At < p.Events[b].At }) {
		t.Error("events not sorted by delivery time")
	}
	for _, e := range p.Events {
		if e.At < 0 || e.At >= 50 {
			t.Errorf("event time %v outside [0, 50)", e.At)
		}
		if e.Kind >= numKinds {
			t.Errorf("event kind %d out of range", e.Kind)
		}
	}
}

func TestNewPlanDegenerate(t *testing.T) {
	for _, p := range []*Plan{NewPlan(1, 0, 5), NewPlan(1, 10, 0), NewPlan(1, -3, -1)} {
		if len(p.Events) != 0 {
			t.Errorf("degenerate plan not empty: %+v", p)
		}
	}
}

func TestNilPlanIsFaultFree(t *testing.T) {
	var p *Plan
	if d := p.DegradationAt(math.Inf(1)); !d.IsZero() {
		t.Errorf("nil plan degradation = %v", d)
	}
	var buf strings.Builder
	if err := p.Format(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("nil plan formatted %q, %v", buf.String(), err)
	}
}

func TestDegradationAccumulates(t *testing.T) {
	p := &Plan{Events: []Event{
		{At: 1, Kind: CPUFail},
		{At: 2, Kind: BankDegrade},
		{At: 3, Kind: IOPStall},
		{At: 4, Kind: JobKill},
		{At: 5, Kind: CPUFail},
	}}
	if d := p.DegradationAt(0.5); !d.IsZero() {
		t.Errorf("degradation before first event = %v", d)
	}
	d := p.DegradationAt(4.5)
	want := Degradation{CPUsLost: 1, BankHalvings: 1, PortHalvings: 1, IOPsStalled: 1}
	if d != want {
		t.Errorf("DegradationAt(4.5) = %+v, want %+v", d, want)
	}
	if d := p.DegradationAt(100); d.CPUsLost != 2 {
		t.Errorf("CPUsLost at end = %d, want 2", d.CPUsLost)
	}
	// JobKill never degrades the machine.
	jk := &Plan{Events: []Event{{At: 1, Kind: JobKill}}}
	if d := jk.DegradationAt(10); !d.IsZero() {
		t.Errorf("JobKill degraded the machine: %v", d)
	}
}

func TestFormatParseRoundTrip(t *testing.T) {
	p := Canonical()
	var buf strings.Builder
	if err := p.Format(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Parse(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("parsing formatted plan: %v\n%s", err, buf.String())
	}
	if len(back.Events) != len(p.Events) {
		t.Fatalf("round trip lost events: %d -> %d", len(p.Events), len(back.Events))
	}
	for i := range p.Events {
		if p.Events[i] != back.Events[i] {
			t.Errorf("event %d: %v -> %v", i, p.Events[i], back.Events[i])
		}
	}
}

func TestParseCommentsAndSorting(t *testing.T) {
	in := `
# a fault scenario
20 jobkill 3

1.5 cpufail 0
# trailing comment
5 bankdegrade 1
`
	p, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Events) != 3 {
		t.Fatalf("want 3 events, got %d", len(p.Events))
	}
	if p.Events[0].Kind != CPUFail || p.Events[1].Kind != BankDegrade || p.Events[2].Kind != JobKill {
		t.Errorf("events not sorted by time: %v", p.Events)
	}
}

func TestParseErrors(t *testing.T) {
	for _, tc := range []struct{ name, in string }{
		{"too few fields", "1.0 cpufail"},
		{"bad time", "abc cpufail 0"},
		{"negative time", "-1 cpufail 0"},
		{"nan time", "NaN cpufail 0"},
		{"unknown kind", "1 meltdown 0"},
		{"bad unit", "1 cpufail x"},
		{"negative unit", "1 cpufail -2"},
	} {
		if _, err := Parse(strings.NewReader(tc.in)); err == nil {
			t.Errorf("%s: Parse accepted %q", tc.name, tc.in)
		}
	}
}

func TestCanonicalPlanShape(t *testing.T) {
	p := Canonical()
	if len(p.Events) != CanonicalEvents {
		t.Fatalf("canonical plan has %d events, want %d", len(p.Events), CanonicalEvents)
	}
	// The canonical scenario must exercise both the scheduler (block
	// failures or job kills) and the machine degradation modes; the
	// resilience golden depends on this mix.
	kinds := map[Kind]int{}
	for _, e := range p.Events {
		kinds[e.Kind]++
	}
	if kinds[CPUFail]+kinds[JobKill] == 0 {
		t.Error("canonical plan schedules no scheduler-visible fault")
	}
	if kinds[CPUFail]+kinds[BankDegrade]+kinds[IOPStall] == 0 {
		t.Error("canonical plan schedules no machine degradation")
	}
}

func TestKindStringRoundTrip(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		back, err := KindByName(k.String())
		if err != nil || back != k {
			t.Errorf("kind %d: name %q round-tripped to %v, %v", k, k.String(), back, err)
		}
	}
	if _, err := KindByName("nosuch"); err == nil {
		t.Error("KindByName accepted an unknown name")
	}
}
