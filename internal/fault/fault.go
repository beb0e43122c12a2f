// Package fault is the deterministic fault-injection vocabulary of the
// benchmark system: the schedule of component failures a production
// SX-4 must survive, expressed in simulated time so every layer above
// — the machine models, the SUPER-UX scheduler, the NCAR runners —
// can consume the same plan and produce byte-identical artifacts.
//
// The paper devotes Section 2.6 to SUPER-UX's operability features
// (Resource Blocks, transparent checkpoint/restart, node-level
// reconfiguration) precisely because CPUs, memory banks and IOPs
// misbehave in production. This package models the misbehaviour:
//
//   - an Event is one fault at a simulated timestamp — a processor
//     failure, a memory-bank degradation, an I/O-processor stall, or a
//     mid-job kill;
//   - a Plan is a seed-driven (SplitMix64) schedule of events, so a
//     whole failure scenario is reproduced from one integer; every
//     execution layer takes one as a *Plan, walks its Events in
//     delivery order, and asks it for the cumulative machine
//     Degradation in force at a time.
//
// A nil *Plan is the canonical "no faults" schedule: every consumer
// treats it as an empty one, which is what pins the fault-free goldens
// byte-identical to a build without this package.
//
// The package is a leaf: it imports only the standard library and the
// splitmix stream, so the model layer, the OS model and the runners can
// all depend on it without cycles. All times are simulated seconds —
// never the host clock.
package fault

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"sx4bench/internal/splitmix"
)

// Kind classifies one injected fault.
type Kind uint8

const (
	// CPUFail removes one processor from service. The machine models
	// lose a CPU; the SUPER-UX scheduler loses the Resource Block the
	// processor backs and requeues its jobs on the survivors.
	CPUFail Kind = iota
	// BankDegrade drops half of the working memory banks (a failed
	// bank group is configured out, the paper's reconfiguration story).
	BankDegrade
	// IOPStall takes one I/O processor out of service.
	IOPStall
	// JobKill kills one running batch job mid-flight; SUPER-UX recovers
	// it from its transparent checkpoint.
	JobKill
	numKinds
)

var kindNames = [...]string{"cpufail", "bankdegrade", "iopstall", "jobkill"}

func (k Kind) String() string {
	if int(k) >= len(kindNames) {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return kindNames[k]
}

// KindByName resolves a schedule-file spelling to a Kind.
func KindByName(name string) (Kind, error) {
	for i, n := range kindNames {
		if n == strings.ToLower(strings.TrimSpace(name)) {
			return Kind(i), nil
		}
	}
	return 0, fmt.Errorf("fault: unknown fault kind %q (known: %s)",
		name, strings.Join(kindNames[:], ", "))
}

// Event is one scheduled fault.
type Event struct {
	// At is the delivery time in simulated seconds from schedule start.
	At float64
	// Kind is the fault class.
	Kind Kind
	// Unit selects the afflicted component: a processor index for
	// CPUFail (the scheduler maps it onto a surviving Resource Block),
	// a running-job ordinal for JobKill, an IOP index for IOPStall.
	// Consumers reduce it modulo their component count.
	Unit int
}

func (e Event) String() string {
	return fmt.Sprintf("%s unit %d at %ss", e.Kind, e.Unit, strconv.FormatFloat(e.At, 'f', 2, 64))
}

// Degradation is the cumulative machine-level impact of the faults
// delivered so far: the graceful-degradation mode a reconfigured node
// runs in. The zero value means a healthy machine.
type Degradation struct {
	// CPUsLost counts failed processors.
	CPUsLost int
	// BankHalvings counts BankDegrade events; each halves the working
	// bank count.
	BankHalvings int
	// PortHalvings counts crossbar-port slowdowns; each halves the
	// per-CPU port width. (BankDegrade implies one: the surviving
	// banks sit behind fewer crossbar sections.)
	PortHalvings int
	// IOPsStalled counts stalled I/O processors.
	IOPsStalled int
}

// IsZero reports a healthy machine.
func (d Degradation) IsZero() bool { return d == Degradation{} }

func (d Degradation) String() string {
	if d.IsZero() {
		return "healthy"
	}
	return fmt.Sprintf("-%dcpu -%dbankhalf -%dporthalf -%diop",
		d.CPUsLost, d.BankHalvings, d.PortHalvings, d.IOPsStalled)
}

// Plan is a deterministic fault schedule. The zero value and the nil
// plan are both empty (fault-free). Consumers index Events directly
// and rely on its invariant: events are in ascending At order (ties in
// generation order) and every At is finite and >= 0. NewPlan draws
// times in [0, horizon) and Parse rejects negative, NaN and huge ones,
// so only a hand-built plan can break it.
type Plan struct {
	// Events is the schedule in delivery order.
	Events []Event
}

// DegradationAt accumulates the machine impact of every event with
// At <= t. Nil-safe.
func (p *Plan) DegradationAt(t float64) Degradation {
	var d Degradation
	if p == nil {
		return d
	}
	for _, e := range p.Events {
		if e.At > t {
			continue
		}
		switch e.Kind {
		case CPUFail:
			d.CPUsLost++
		case BankDegrade:
			// Configuring out a bank group also costs the crossbar
			// sections in front of it.
			d.BankHalvings++
			d.PortHalvings++
		case IOPStall:
			d.IOPsStalled++
		}
	}
	return d
}

// sortEvents fixes delivery order: ascending At, stable for ties.
func sortEvents(events []Event) {
	slices.SortStableFunc(events, func(a, b Event) int { return cmp.Compare(a.At, b.At) })
}

// NewPlan derives a schedule of n faults over [0, horizon) seconds
// from a seed: a SplitMix64 stream supplies each event's time, kind
// and unit, so the whole scenario is a pure function of (seed,
// horizon, n) — identical across hosts, worker counts and runs.
func NewPlan(seed int64, horizon float64, n int) *Plan {
	p := &Plan{}
	p.Fill(seed, horizon, n)
	return p
}

// Fill overwrites p with the schedule NewPlan(seed, horizon, n)
// derives, reusing p's event storage.
func (p *Plan) Fill(seed int64, horizon float64, n int) {
	p.Events = p.Events[:0]
	if horizon <= 0 || n <= 0 {
		return
	}
	r := splitmix.Stream(splitmix.Mix(uint64(seed)))
	if cap(p.Events) < n {
		p.Events = make([]Event, 0, n)
	}
	for i := 0; i < n; i++ {
		p.Events = append(p.Events, Event{
			At:   r.Uniform() * horizon,
			Kind: Kind(r.Next() % uint64(numKinds)),
			Unit: int(r.Next() % 32),
		})
	}
	sortEvents(p.Events)
}

// The canonical fault scenario: the seeded plan behind the golden
// resilience artifact and the `make faults` smoke run. The seed is the
// paper's year; the horizon spans the resilience workload's makespan
// on the modeled machines.
const (
	CanonicalSeed    = 1996
	CanonicalHorizon = 300.0
	CanonicalEvents  = 8
)

// Canonical returns the canonical seeded plan.
func Canonical() *Plan { return NewPlan(CanonicalSeed, CanonicalHorizon, CanonicalEvents) }

// NodeSeed derives the node-th per-node fault seed from one fleet
// seed: a double SplitMix64 mix of (fleetSeed, node), so a whole
// fleet's failure scenario is reproduced from one integer while every
// node still draws an independent, well-spread schedule. The identity
// of existing single-node plans is untouched — NodeSeed never equals
// its input for the canonical scenarios, and NewPlan itself is
// unchanged, so the seed-1996 plan behind the resilience golden is
// byte-identical with or without a fleet above it.
func NodeSeed(fleetSeed int64, node int) int64 {
	// The (node+1)-th draw of the SplitMix64 stream seeded by the fleet
	// seed: jumping the state by node+1 golden-ratio increments is the
	// stream's native skip-ahead, and the asymmetric mix keeps
	// (fleet, node) pairs from aliasing each other the way a plain XOR
	// of the two halves would.
	return int64(splitmix.Mix(splitmix.Mix(uint64(fleetSeed)) + splitmix.Gamma*(uint64(node)+1)))
}

// Format writes the plan in the schedule-file syntax Parse reads: one
// "<at-seconds> <kind> <unit>" line per event.
func (p *Plan) Format(w io.Writer) error {
	if p == nil {
		return nil
	}
	for _, e := range p.Events {
		if _, err := fmt.Fprintf(w, "%s %s %d\n",
			strconv.FormatFloat(e.At, 'g', -1, 64), e.Kind, e.Unit); err != nil {
			return err
		}
	}
	return nil
}

// Parse reads a schedule file: one event per line as
// "<at-seconds> <kind> <unit>", with blank lines and #-comments
// ignored. Events need not be pre-sorted; delivery order is fixed to
// ascending time. Negative or non-finite times are rejected.
func Parse(r io.Reader) (*Plan, error) {
	p := &Plan{}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return nil, fmt.Errorf("fault: line %d: want \"<at> <kind> <unit>\", got %q", lineNo, line)
		}
		at, err := strconv.ParseFloat(fields[0], 64)
		if err != nil || at < 0 || at != at || at > 1e300 {
			return nil, fmt.Errorf("fault: line %d: bad time %q", lineNo, fields[0])
		}
		kind, err := KindByName(fields[1])
		if err != nil {
			return nil, fmt.Errorf("fault: line %d: %w", lineNo, err)
		}
		unit, err := strconv.Atoi(fields[2])
		if err != nil || unit < 0 {
			return nil, fmt.Errorf("fault: line %d: bad unit %q", lineNo, fields[2])
		}
		p.Events = append(p.Events, Event{At: at, Kind: kind, Unit: unit})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("fault: %w", err)
	}
	sortEvents(p.Events)
	return p, nil
}
