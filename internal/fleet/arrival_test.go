package fleet

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"
)

// referenceArrivals is the schedule generator as first written:
// generate every arrival in draw order, stable-sort the whole schedule
// by time, then name each job "<mix>-<class>-<index>". Arrivals must
// equal it exactly.
func referenceArrivals(m Mix, seed int64, horizon float64) []Arrival {
	g := generator{r: newStream(seed)}
	var out []Arrival
	classify := func(t float64) Arrival {
		total := 0.0
		for _, c := range m.Classes {
			total += c.Weight
		}
		draw := g.r.Uniform() * total
		cls := m.Classes[len(m.Classes)-1]
		for _, c := range m.Classes {
			if draw < c.Weight {
				cls = c
				break
			}
			draw -= c.Weight
		}
		return Arrival{At: t, Name: cls.Name, CPUs: cls.CPUs, MemGB: cls.MemGB, WorkMFLOP: cls.WorkMFLOP}
	}
	poisson := func(perHour float64) {
		if perHour <= 0 {
			return
		}
		for t := 0.0; ; {
			t += g.exp(3600 / perHour)
			if t >= horizon {
				return
			}
			out = append(out, classify(t))
		}
	}
	switch m.Pattern {
	case PatternBurst:
		poisson(m.PerHour)
		for day := 0.0; day < horizon; day += DaySeconds {
			for j := 0; j < BurstJobs; j++ {
				at := day + BurstOffsetSeconds + float64(j)*BurstSpacing
				if at >= horizon {
					break
				}
				out = append(out, classify(at))
			}
		}
	case PatternDiurnal:
		peak := m.PerHour * (1 + DiurnalSwing)
		for t := 0.0; ; {
			t += g.exp(3600 / peak)
			if t >= horizon {
				break
			}
			rate := m.PerHour * (1 + DiurnalSwing*math.Sin(2*math.Pi*t/DaySeconds))
			if g.r.Uniform()*peak < rate {
				out = append(out, classify(t))
			} else {
				g.r.Uniform()
			}
		}
	default:
		poisson(m.PerHour)
	}
	slices.SortStableFunc(out, func(a, b Arrival) int { return cmp.Compare(a.At, b.At) })
	for i := range out {
		out[i].Name = fmt.Sprintf("%s-%s-%d", m.Name, out[i].Name, i)
	}
	return out
}

// TestArrivalsMatchSortedGeneration pins every pattern's schedule,
// over many seeds, horizons and rates (dense bursty backgrounds
// included), to the generate-then-sort reference.
func TestArrivalsMatchSortedGeneration(t *testing.T) {
	mixes := CanonicalMixes()
	for _, perHour := range []float64{0, 0.5, 1.5, 30} {
		for _, m := range CanonicalMixes() {
			m.PerHour = perHour
			m.Name = fmt.Sprintf("%s@%g", m.Name, perHour)
			mixes = append(mixes, m)
		}
	}
	for _, m := range mixes {
		for _, horizon := range []float64{0, DaySeconds / 2, 2.5 * DaySeconds, WeekSeconds} {
			for seed := int64(-2); seed < 20; seed++ {
				got, want := m.Arrivals(seed, horizon), referenceArrivals(m, seed, horizon)
				if !slices.Equal(got, want) {
					t.Fatalf("%s seed %d horizon %v: %d arrivals differ from the sorted reference's %d",
						m.Name, seed, horizon, len(got), len(want))
				}
			}
		}
	}
}

// TestMergeTailIsStableSort pins the burst merge on hand-built runs
// with forced equal-time ties between background and burst arrivals:
// merging must equal a stable sort of the two runs concatenated, so a
// background arrival always precedes a burst arrival at its time.
func TestMergeTailIsStableSort(t *testing.T) {
	r := newStream(7)
	run := func(prefix string, n int) []Arrival {
		out := make([]Arrival, n)
		at := 0.0
		for i := range out {
			at += float64(int(r.Uniform() * 3)) // steps of 0, 1 or 2 force ties
			out[i] = Arrival{At: at, Name: fmt.Sprintf("%s%d", prefix, i)}
		}
		return out
	}
	cases := [][2][]Arrival{{
		{{At: 1, Name: "b0"}, {At: 5, Name: "b1"}, {At: 5, Name: "b2"}, {At: 9, Name: "b3"}},
		{{At: 0, Name: "t0"}, {At: 5, Name: "t1"}, {At: 9, Name: "t2"}, {At: 12, Name: "t3"}},
	}}
	for _, sizes := range [][2]int{{0, 3}, {3, 0}, {1, 1}, {20, 5}, {5, 20}, {40, 40}} {
		cases = append(cases, [2][]Arrival{run("b", sizes[0]), run("t", sizes[1])})
	}
	for k, c := range cases {
		background, tail := c[0], c[1]
		want := slices.Concat(background, tail)
		slices.SortStableFunc(want, func(a, b Arrival) int { return cmp.Compare(a.At, b.At) })
		out := make([]Arrival, len(background)+len(tail))
		copy(out, background)
		mergeTail(out, len(background), tail)
		if !slices.Equal(out, want) {
			t.Errorf("case %d: merge differs from the stable sort:\n%v\n%v", k, out, want)
		}
	}
}
