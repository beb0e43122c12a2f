// Package core is the NCAR benchmark-suite framework: the methodology
// layer of the paper. It provides the measurement loop shared by
// the SX-4 model and the comparison-machine models, the KTRIES
// best-of-k repetition rule, and result series/table types that the
// reporting tools render.
package core

import (
	"math"
	"sync"

	"sx4bench/internal/splitmix"
	"sx4bench/internal/sx4/prog"
	"sx4bench/internal/target"
)

// Noise perturbs simulated timings with deterministic pseudo-random
// system jitter (interrupts, daemons, memory refresh), so that the
// KTRIES best-of-k rule has something to smooth, as it did on the real
// machine. Amp is the maximum fractional slowdown; a zero Noise is
// silent.
//
// Perturb is safe for concurrent use, but concurrent callers sharing
// one Noise consume draws in scheduling order, which is not
// reproducible. Under the parallel experiment engine each independent
// unit of work must therefore draw from its own Stream: sub-sources
// whose sequences depend only on (Seed, id), never on execution order.
type Noise struct {
	Amp  float64
	Seed int64

	mu    sync.Mutex
	state splitmix.Stream // 0 means "not yet seeded"
}

// NewNoise returns a jitter source with the given amplitude and seed.
func NewNoise(amp float64, seed int64) *Noise {
	return &Noise{Amp: amp, Seed: seed, state: noiseState(seed)}
}

// noiseState maps a user seed onto a non-zero SplitMix64 state.
// Seeding is a single mix — cheap enough that the parallel sweeps can
// fork one Stream per measurement point without the stream setup
// dominating the measurement (rand.Rand's 607-word lagged-Fibonacci
// seeding did exactly that).
func noiseState(seed int64) splitmix.Stream {
	s := splitmix.Mix(uint64(seed))
	if s == 0 {
		s = splitmix.Gamma
	}
	return splitmix.Stream(s)
}

// Stream derives the id-th independent jitter stream: same amplitude,
// a seed mixed from (Seed, id). Streams with the same (Seed, id) are
// identical no matter how many exist or in which order they are used,
// which is what makes parallel sweeps deterministic: one stream per
// measurement point, keyed by the point's index.
func (n *Noise) Stream(id int64) *Noise {
	if n == nil {
		return nil
	}
	seed := int64(splitmix.Mix(splitmix.Mix(uint64(n.Seed)) ^ uint64(id)))
	return NewNoise(n.Amp, seed)
}

// Perturb returns seconds inflated by a random factor in [1, 1+Amp].
func (n *Noise) Perturb(seconds float64) float64 {
	if n == nil || n.Amp == 0 {
		return seconds
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.state == 0 {
		n.state = noiseState(n.Seed)
	}
	return seconds * (1 + n.Amp*n.state.Uniform())
}

// KTries runs trial k times and returns the best (smallest) time, the
// rule the NCAR kernels apply: "For values of KTRIES greater than one,
// the best performance for that instance is reported."
func KTries(k int, trial func() float64) float64 {
	if k < 1 {
		k = 1
	}
	best := math.Inf(1)
	for i := 0; i < k; i++ {
		if t := trial(); t < best {
			best = t
		}
	}
	return best
}

// Measurement is one timed benchmark instance.
type Measurement struct {
	// N is the sweep axis value (vector/copy/FFT axis length).
	N int
	// M is the instance-axis length paired with N.
	M int
	// Seconds is the best-of-KTRIES time.
	Seconds float64
	// Flops is the operation count of one trial.
	Flops int64
	// PayloadBytes is the number of payload bytes moved (excluding
	// index vectors), for bandwidth benchmarks.
	PayloadBytes int64
}

// MBps returns the payload bandwidth in MB/s (10^6 bytes per second).
func (m Measurement) MBps() float64 {
	if m.Seconds <= 0 {
		return 0
	}
	return float64(m.PayloadBytes) / m.Seconds / 1e6
}

// MFLOPS returns the rate in millions of flops per second.
func (m Measurement) MFLOPS() float64 {
	if m.Seconds <= 0 {
		return 0
	}
	return float64(m.Flops) / m.Seconds / 1e6
}

// Point is one (x, y) sample of a result curve.
type Point struct{ X, Y float64 }

// Series is a labeled result curve, one line of a paper figure.
type Series struct {
	Label  string
	Points []Point
}

// Append adds a point.
func (s *Series) Append(x, y float64) { s.Points = append(s.Points, Point{x, y}) }

// MaxY returns the largest Y value, or 0 for an empty series.
func (s *Series) MaxY() float64 {
	max := 0.0
	for _, p := range s.Points {
		if p.Y > max {
			max = p.Y
		}
	}
	return max
}

// YAt returns the Y value at the first point with X == x.
func (s *Series) YAt(x float64) (float64, bool) {
	for _, p := range s.Points {
		if p.X == x {
			return p.Y, true
		}
	}
	return 0, false
}

// Figure is a set of series, matching one paper figure.
type Figure struct {
	ID     string // e.g. "fig5"
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// Table is a rendered result table, matching one paper table.
type Table struct {
	ID      string // e.g. "table7"
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Run measures one trace on a target with KTRIES repetitions under
// jitter, returning the best time. payloadBytes may be zero for
// compute benchmarks.
func Run(t target.Target, p prog.Program, opts target.RunOpts, ktries int, noise *Noise, payloadBytes int64) Measurement {
	return measure(t.Run(p, opts), ktries, noise, payloadBytes)
}

// RunCompiled is Run for a pre-compiled trace: drivers that revisit
// the same trace shape across sweep points, machines or report
// sections cache the compiled form once and skip rebuilding and
// re-hashing the program on every measurement. The reported numbers
// are bit-identical to Run on the source program.
func RunCompiled(t target.Target, c *prog.Compiled, opts target.RunOpts, ktries int, noise *Noise, payloadBytes int64) Measurement {
	return measure(t.RunCompiled(c, opts), ktries, noise, payloadBytes)
}

// measure applies the KTRIES rule to one simulated result. Targets are
// pure functions of (trace, opts) — jitter enters only through noise —
// so the trace is simulated once and only the perturbation repeats.
// The draw sequence matches running the trace inside the loop
// draw-for-draw, so reported numbers are unchanged, but a KTRIES=20
// point costs one simulation instead of twenty.
func measure(r target.Result, ktries int, noise *Noise, payloadBytes int64) Measurement {
	best := KTries(ktries, func() float64 {
		return noise.Perturb(r.Seconds)
	})
	return Measurement{Seconds: best, Flops: r.Flops, PayloadBytes: payloadBytes}
}
