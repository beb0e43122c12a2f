package fault

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzFaultPlanParse pins the schedule-file syntax down from both
// sides: Parse never panics on arbitrary text, every accepted schedule
// satisfies the Plan invariants (sorted, finite, non-negative), and
// the Format/Parse pair is an exact round trip — the text form is a
// faithful serialization, so a schedule shipped between ncarbench and
// sx4d survives byte-for-byte.
func FuzzFaultPlanParse(f *testing.F) {
	var canonical bytes.Buffer
	if err := Canonical().Format(&canonical); err != nil {
		f.Fatal(err)
	}
	f.Add(canonical.String())
	var node bytes.Buffer
	if err := NewPlan(NodeSeed(1996, 2), 604800, 6).Format(&node); err != nil {
		f.Fatal(err)
	}
	f.Add(node.String())
	f.Add("# comment only\n\n12.5 cpufail 3\n")
	f.Add("3 jobkill 0\n1 bankdegrade 7\n2 iopstall 1\n") // unsorted input
	f.Add("nonsense line\n")
	f.Add("-1 cpufail 0\n")
	f.Add("1e301 cpufail 0\n")
	f.Add("5 cpufail -2\n")
	f.Add("NaN jobkill 1\n")
	f.Add("1 cpufail 1 extra\n")

	f.Fuzz(func(t *testing.T, text string) {
		p, err := Parse(strings.NewReader(text))
		if err != nil {
			return // rejection is fine; panicking or accepting garbage is not
		}
		for i, e := range p.Events {
			if e.At < 0 || e.At != e.At || e.At > 1e300 {
				t.Fatalf("accepted event with invalid time: %v", e)
			}
			if e.Unit < 0 {
				t.Fatalf("accepted event with negative unit: %v", e)
			}
			if int(e.Kind) >= int(numKinds) {
				t.Fatalf("accepted event with unknown kind: %v", e)
			}
			if i > 0 && p.Events[i-1].At > e.At {
				t.Fatalf("parsed schedule unsorted at %d: %v after %v", i, e, p.Events[i-1])
			}
		}
		var out bytes.Buffer
		if err := p.Format(&out); err != nil {
			t.Fatalf("formatting an accepted plan failed: %v", err)
		}
		q, err := Parse(&out)
		if err != nil {
			t.Fatalf("re-parsing Format output failed: %v\n%s", err, out.String())
		}
		if len(p.Events) != len(q.Events) {
			t.Fatalf("round trip changed event count: %d -> %d", len(p.Events), len(q.Events))
		}
		for i := range p.Events {
			if p.Events[i] != q.Events[i] {
				t.Fatalf("round trip changed event %d: %v -> %v", i, p.Events[i], q.Events[i])
			}
		}
	})
}
