package fleet

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"

	"sx4bench/internal/superux"
)

// Arrival is one job entering the system at a simulated time. It is
// the shape shared by the legacy PRODLOAD replay and the fleet engine:
// prodload expresses its four-job sequences as arrivals with fixed
// Seconds and Block bindings (replayed on one node byte-identically to
// the pre-fleet scheduler loop), while the generated mixes express
// work as WorkMFLOP and leave placement to the cluster dispatcher.
type Arrival struct {
	// At is the submission time in simulated seconds.
	At float64
	// Name labels the job.
	Name string
	// Block, when non-empty, binds the job to a named resource block —
	// the single-node replay path. Cluster-routed arrivals leave it
	// empty and the dispatcher picks node and block.
	Block string
	// CPUs and MemGB are the job's resource shape.
	CPUs  int
	MemGB float64
	// Seconds, when positive, is the job's fixed duration. Otherwise
	// the duration is WorkMFLOP converted at the chosen node's rate —
	// the heterogeneity hook.
	Seconds   float64
	WorkMFLOP float64
	// Priority follows superux ordering (higher first).
	Priority int
}

// Replay drives a single SUPER-UX system with a fixed arrival
// schedule: the system is advanced to each arrival's time, the job
// submitted, and the event loop drained after the last submission. For
// an all-At-zero schedule this is exactly the pre-fleet PRODLOAD loop
// — submissions in slice order at t=0, one Advance — which is what
// keeps the prodload golden byte-identical across the refactor.
func Replay(sys *superux.System, arrivals []Arrival) float64 {
	for _, a := range arrivals {
		if a.At > 0 {
			sys.AdvanceUntil(a.At)
		}
		sys.Submit(superux.Job{
			Name:     a.Name,
			Block:    a.Block,
			CPUs:     a.CPUs,
			MemGB:    a.MemGB,
			Seconds:  a.Seconds,
			Priority: a.Priority,
		})
	}
	return sys.Advance()
}

// JobClass is one tenant's job shape in a workload mix: PRODLOAD's
// fixed components (a T106 climate run, T42 runs, a HIPPI transfer)
// generalized to a weighted class with a work demand instead of a
// duration.
type JobClass struct {
	Name      string
	CPUs      int
	MemGB     float64
	WorkMFLOP float64
	// Weight is the class's relative draw frequency within its mix.
	Weight float64
}

// Pattern selects a mix's arrival process.
type Pattern int

const (
	// PatternSteady is a homogeneous Poisson process at PerHour.
	PatternSteady Pattern = iota
	// PatternBurst is a low-rate Poisson background plus a fixed-size
	// burst of submissions every simulated morning — the 09:00 queue
	// flood.
	PatternBurst
	// PatternDiurnal is a Poisson process whose rate swings
	// sinusoidally over each 24-hour day (thinning construction).
	PatternDiurnal
)

func (p Pattern) String() string {
	switch p {
	case PatternSteady:
		return "steady"
	case PatternBurst:
		return "burst"
	case PatternDiurnal:
		return "diurnal"
	}
	return fmt.Sprintf("pattern(%d)", int(p))
}

// Mix is one multi-tenant workload: an arrival pattern over a set of
// weighted job classes.
type Mix struct {
	Name    string
	Pattern Pattern
	// PerHour is the mean arrival rate (the Poisson intensity; for
	// PatternBurst the background intensity).
	PerHour float64
	Classes []JobClass
}

// The burst and diurnal shape constants: a burst of BurstJobs lands
// BurstOffsetSeconds into each simulated day, spaced BurstSpacing
// apart; the diurnal rate swings ±DiurnalSwing around the mean.
const (
	DaySeconds         = 86400.0
	BurstJobs          = 12
	BurstOffsetSeconds = 9 * 3600.0
	BurstSpacing       = 120.0
	DiurnalSwing       = 0.9
)

// Arrivals generates the mix's deterministic arrival schedule over
// [0, horizon) seconds: a pure function of (mix, seed, horizon),
// identical across hosts, worker counts and runs. Draws are consumed
// from one SplitMix64 stream in a fixed order, then the schedule is
// stable-sorted by time and named, so the result never depends on
// generation order internals.
func (m Mix) Arrivals(seed int64, horizon float64) []Arrival {
	r := newRand(seed)
	out := make([]Arrival, 0, m.expectedArrivals(horizon))
	switch m.Pattern {
	case PatternBurst:
		out = m.poisson(out, r, horizon, m.PerHour)
		for day := 0.0; day < horizon; day += DaySeconds {
			for j := 0; j < BurstJobs; j++ {
				at := day + BurstOffsetSeconds + float64(j)*BurstSpacing
				if at >= horizon {
					break
				}
				out = append(out, m.classify(r, at))
			}
		}
	case PatternDiurnal:
		// Thinning: homogeneous candidates at the peak rate, each kept
		// with probability rate(t)/peak. Every candidate consumes its
		// acceptance draw whether kept or not, so the schedule is a
		// stable function of the stream.
		peak := m.PerHour * (1 + DiurnalSwing)
		t := 0.0
		for {
			t += r.exp(3600 / peak)
			if t >= horizon {
				break
			}
			rate := m.PerHour * (1 + DiurnalSwing*math.Sin(2*math.Pi*t/DaySeconds))
			if r.uniform()*peak < rate {
				out = append(out, m.classify(r, t))
			} else {
				r.uniform() // class draw burned: kept/dropped candidates cost the same
			}
		}
	default:
		out = m.poisson(out, r, horizon, m.PerHour)
	}
	slices.SortStableFunc(out, func(a, b Arrival) int { return cmp.Compare(a.At, b.At) })
	m.label(out)
	return out
}

// expectedArrivals sizes a schedule's backing array: the mean Poisson
// count over the horizon plus four standard deviations, and every
// burst submission.
func (m Mix) expectedArrivals(horizon float64) int {
	n := 0.0
	if mean := m.PerHour * horizon / 3600; mean > 0 {
		n = mean + 4*math.Sqrt(mean)
	}
	if m.Pattern == PatternBurst && horizon > 0 {
		n += BurstJobs * math.Ceil(horizon/DaySeconds)
	}
	return int(n)
}

// label names every arrival of a time-sorted schedule
// "<mix>-<class>-<index>". All names slice one backing string, so the
// labels cost two allocations per schedule, not one per job. Until
// label runs, Name carries the job's class.
func (m Mix) label(out []Arrival) {
	size := 0
	for i := range out {
		size += labelLen(m.Name, out[i].Name, i)
	}
	buf := make([]byte, 0, size)
	for i := range out {
		buf = append(buf, m.Name...)
		buf = append(buf, '-')
		buf = append(buf, out[i].Name...)
		buf = append(buf, '-')
		buf = strconv.AppendInt(buf, int64(i), 10)
	}
	names := string(buf)
	for i := range out {
		n := labelLen(m.Name, out[i].Name, i)
		out[i].Name, names = names[:n], names[n:]
	}
}

// labelLen is the length of label's "<mix>-<class>-<i>" for i >= 0.
func labelLen(mix, class string, i int) int {
	n := len(mix) + len(class) + 3 // two dashes and i's last digit
	for ; i >= 10; i /= 10 {
		n++
	}
	return n
}

// poisson appends a homogeneous Poisson process at perHour over the
// horizon to out.
func (m Mix) poisson(out []Arrival, r *rand64, horizon, perHour float64) []Arrival {
	if perHour <= 0 {
		return out
	}
	t := 0.0
	for {
		t += r.exp(3600 / perHour)
		if t >= horizon {
			return out
		}
		out = append(out, m.classify(r, t))
	}
}

// classify draws one weighted job class and shapes an arrival at t.
// The job's final name is assigned after sorting; until then Name
// carries the class.
func (m Mix) classify(r *rand64, t float64) Arrival {
	total := 0.0
	for _, c := range m.Classes {
		total += c.Weight
	}
	draw := r.uniform() * total
	cls := m.Classes[len(m.Classes)-1]
	for _, c := range m.Classes {
		if draw < c.Weight {
			cls = c
			break
		}
		draw -= c.Weight
	}
	return Arrival{
		At:        t,
		Name:      cls.Name,
		CPUs:      cls.CPUs,
		MemGB:     cls.MemGB,
		WorkMFLOP: cls.WorkMFLOP,
	}
}

// CanonicalClasses is the fleet generalization of PRODLOAD's job
// components: the big spectral run, the pair-sized T42 runs, the HIPPI
// transfer and a small analysis job, with work demands sized so the
// flagship SX-4/32 clears the mix comfortably and slower comparators
// visibly queue.
func CanonicalClasses() []JobClass {
	return []JobClass{
		{Name: "t106", CPUs: 8, MemGB: 4, WorkMFLOP: 9.6e6, Weight: 3},
		{Name: "t42", CPUs: 2, MemGB: 1, WorkMFLOP: 1.2e6, Weight: 6},
		{Name: "hippi", CPUs: 1, MemGB: 0.5, WorkMFLOP: 1.2e5, Weight: 2},
		{Name: "analysis", CPUs: 4, MemGB: 2, WorkMFLOP: 2.4e6, Weight: 1},
	}
}

// CanonicalMixes returns the three canonical workload mixes the
// capacity artifact sweeps: steady, burst and diurnal tenants over the
// canonical classes.
func CanonicalMixes() []Mix {
	classes := CanonicalClasses()
	return []Mix{
		{Name: "steady", Pattern: PatternSteady, PerHour: 1.5, Classes: classes},
		{Name: "burst", Pattern: PatternBurst, PerHour: 0.5, Classes: classes},
		{Name: "diurnal", Pattern: PatternDiurnal, PerHour: 1.5, Classes: classes},
	}
}

// rand64 is a local SplitMix64 draw stream (the repo's standard seeded
// primitive; math/rand's global source is banned by the seededrand
// analyzer).
type rand64 struct{ state uint64 }

func newRand(seed int64) *rand64 {
	s := splitmix64(uint64(seed))
	if s == 0 {
		s = 0x9e3779b97f4a7c15
	}
	return &rand64{state: s}
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// uniform returns the next draw in [0, 1).
func (r *rand64) uniform() float64 {
	r.state += 0x9e3779b97f4a7c15
	return float64(splitmix64(r.state)>>11) / (1 << 53)
}

// exp returns an exponential draw with the given mean (inter-arrival
// gaps of a Poisson process).
func (r *rand64) exp(mean float64) float64 {
	return -mean * math.Log(1-r.uniform())
}
