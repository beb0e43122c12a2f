package fleet

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"sx4bench/internal/splitmix"
)

// Arrival is one job entering the fleet at a simulated time. Its work
// is a demand, not a duration, and the cluster dispatcher picks its
// node and block.
type Arrival struct {
	// At is the submission time in simulated seconds.
	At float64
	// Name labels the job.
	Name string
	// CPUs and MemGB are the job's resource shape.
	CPUs  int
	MemGB float64
	// WorkMFLOP is the job's work; the chosen node's rate converts it to
	// a duration — the heterogeneity hook.
	WorkMFLOP float64
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
// from one SplitMix64 stream in a fixed order; the schedule comes out
// stably ordered by time and is then named.
func (m Mix) Arrivals(seed int64, horizon float64) []Arrival {
	return m.appendArrivals(nil, seed, horizon)
}

// appendArrivals is Arrivals writing into out's storage, which it
// overwrites.
func (m Mix) appendArrivals(out []Arrival, seed int64, horizon float64) []Arrival {
	g := generator{classes: m.Classes, r: newStream(seed)}
	for _, c := range m.Classes {
		g.total += c.Weight
	}
	out = slices.Grow(out[:0], m.expectedArrivals(horizon))
	switch m.Pattern {
	case PatternBurst:
		// The Poisson background comes out in time order, and so do the
		// bursts; their classes are drawn after the background's. The
		// bursts are drawn into spare capacity past the background, then
		// merged in from the back, the background first on equal times.
		out = g.poisson(out, horizon, m.PerHour)
		background := len(out)
		for day := 0.0; day < horizon; day += DaySeconds {
			for j := 0; j < BurstJobs; j++ {
				at := day + BurstOffsetSeconds + float64(j)*BurstSpacing
				if at >= horizon {
					break
				}
				out = g.classify(out, at)
			}
		}
		bursts := len(out) - background
		out = slices.Grow(out, bursts)[:len(out)+bursts]
		copy(out[background+bursts:], out[background:background+bursts])
		mergeTail(out[:background+bursts], background, out[background+bursts:])
		out = out[:background+bursts]
	case PatternDiurnal:
		// Thinning: homogeneous candidates at the peak rate, each kept
		// with probability rate(t)/peak. Every candidate consumes its
		// acceptance draw whether kept or not, so the schedule is a
		// stable function of the stream.
		peak := m.PerHour * (1 + DiurnalSwing)
		t := 0.0
		for {
			t += g.exp(3600 / peak)
			if t >= horizon {
				break
			}
			rate := m.PerHour * (1 + DiurnalSwing*math.Sin(2*math.Pi*t/DaySeconds))
			if g.r.Uniform()*peak < rate {
				out = g.classify(out, t)
			} else {
				g.r.Uniform() // class draw burned: kept/dropped candidates cost the same
			}
		}
	default:
		out = g.poisson(out, horizon, m.PerHour)
	}
	m.label(out)
	return out
}

// mergeTail merges two time-ordered runs into out: out[:n] holds the
// first run, tail the second, and out has room for both. Equal times
// keep the first run's arrival first, so the result equals a stable
// sort of the two runs concatenated. tail must not overlap out.
func mergeTail(out []Arrival, n int, tail []Arrival) {
	i, j := n-1, len(tail)-1
	for k := len(out) - 1; j >= 0; k-- {
		if i >= 0 && out[i].At > tail[j].At {
			out[k] = out[i]
			i--
		} else {
			out[k] = tail[j]
			j--
		}
	}
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
// "<mix>-<class>-<index>". All names slice one string, so the labels
// cost one allocation per schedule, not one per job. Until label runs,
// Name carries the job's class.
func (m Mix) label(out []Arrival) {
	size := 0
	for i := range out {
		size += labelLen(m.Name, out[i].Name, i)
	}
	var b strings.Builder
	b.Grow(size)
	var digits [20]byte
	for i := range out {
		start := b.Len()
		b.WriteString(m.Name)
		b.WriteByte('-')
		b.WriteString(out[i].Name)
		b.WriteByte('-')
		b.Write(strconv.AppendInt(digits[:0], int64(i), 10))
		// A Builder never changes bytes already written, so each label
		// slices the string built so far.
		out[i].Name = b.String()[start:]
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

// generator draws one schedule's arrivals from its stream.
type generator struct {
	classes []JobClass
	r       splitmix.Stream
	total   float64 // the classes' summed weight
}

// newStream seeds a schedule's draw stream from the arrival seed.
func newStream(seed int64) splitmix.Stream {
	s := splitmix.Mix(uint64(seed))
	if s == 0 {
		s = splitmix.Gamma
	}
	return splitmix.Stream(s)
}

// exp returns an exponential draw with the given mean (inter-arrival
// gaps of a Poisson process).
func (g *generator) exp(mean float64) float64 {
	return -mean * math.Log(1-g.r.Uniform())
}

// poisson appends a homogeneous Poisson process at perHour over the
// horizon to out.
func (g *generator) poisson(out []Arrival, horizon, perHour float64) []Arrival {
	if perHour <= 0 {
		return out
	}
	t := 0.0
	for {
		t += g.exp(3600 / perHour)
		if t >= horizon {
			return out
		}
		out = g.classify(out, t)
	}
}

// classify draws one weighted job class and appends an arrival of its
// shape at t. The job's final name is assigned once the schedule is
// ordered; until then Name carries the class.
func (g *generator) classify(out []Arrival, t float64) []Arrival {
	classes := g.classes
	draw := g.r.Uniform() * g.total
	cls := &classes[len(classes)-1]
	for i := range classes {
		if draw < classes[i].Weight {
			cls = &classes[i]
			break
		}
		draw -= classes[i].Weight
	}
	out = append(out, Arrival{})
	a := &out[len(out)-1]
	a.At, a.Name, a.CPUs, a.MemGB, a.WorkMFLOP = t, cls.Name, cls.CPUs, cls.MemGB, cls.WorkMFLOP
	return out
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
