// Package kernels implements the NCAR memory-bandwidth kernels COPY,
// IA (indirect address), and XPOSE (matrix transposition).
//
// Each kernel exists in two forms: a host implementation operating on
// real arrays (used to verify semantics and to cross-check the analytic
// operation counts), and a trace builder producing the prog.Program the
// machine model times. The benchmarks sweep (N, M) pairs of roughly
// constant data volume: many small arrays at one end, a few large
// arrays at the other.
package kernels

import (
	"fmt"
	"math"
	"math/rand"

	"sx4bench/internal/sx4/prog"
)

// WordBytes is the size of the 64-bit elements all kernels move.
const WordBytes = 8

// Copy describes one instance of the COPY benchmark:
//
//	do j=1,M; do i=1,N; b(i,j)=a(i,j); end do; end do
type Copy struct{ N, M int }

// Trace returns the operation trace of the kernel: M trips of a unit
// stride load/store pair of vector length N.
func (k Copy) Trace() prog.Program {
	return prog.Simple(fmt.Sprintf("COPY(N=%d,M=%d)", k.N, k.M), int64(k.M),
		prog.Op{Class: prog.VLoad, VL: k.N, Stride: 1},
		prog.Op{Class: prog.VStore, VL: k.N, Stride: 1},
	)
}

// PayloadBytes counts the payload moved: each element of a is read and
// written to b (the STREAM COPY convention).
func (k Copy) PayloadBytes() int64 { return 2 * WordBytes * int64(k.N) * int64(k.M) }

// Host executes the copy on real arrays and returns b.
func (k Copy) Host(a []float64) []float64 {
	if len(a) != k.N*k.M {
		panic(fmt.Sprintf("kernels: COPY input length %d, want %d", len(a), k.N*k.M))
	}
	b := make([]float64, len(a))
	for j := 0; j < k.M; j++ {
		row := j * k.N
		for i := 0; i < k.N; i++ {
			b[row+i] = a[row+i]
		}
	}
	return b
}

// IA describes one instance of the indirect-address benchmark:
//
//	do j=1,M; do i=1,N; b(i,j)=a(indx(i),j); end do; end do
type IA struct{ N, M int }

// Trace returns the trace: per trip, the index vector load, the gather,
// and the contiguous store.
func (k IA) Trace() prog.Program {
	return prog.Simple(fmt.Sprintf("IA(N=%d,M=%d)", k.N, k.M), int64(k.M),
		prog.Op{Class: prog.VLoad, VL: k.N, Stride: 1}, // indx(i)
		prog.Op{Class: prog.VGather, VL: k.N, Span: k.N},
		prog.Op{Class: prog.VStore, VL: k.N, Stride: 1},
	)
}

// PayloadBytes counts only the elements of a moved to b, not the index
// values used — the paper's counting rule.
func (k IA) PayloadBytes() int64 { return 2 * WordBytes * int64(k.N) * int64(k.M) }

// Host executes the gather on real arrays.
func (k IA) Host(a []float64, indx []int) []float64 {
	if len(a) != k.N*k.M || len(indx) != k.N {
		panic("kernels: IA input shape mismatch")
	}
	b := make([]float64, k.N*k.M)
	for j := 0; j < k.M; j++ {
		row := j * k.N
		for i := 0; i < k.N; i++ {
			b[row+i] = a[row+indx[i]]
		}
	}
	return b
}

// Permutation returns a deterministic pseudo-random permutation of
// [0, n), the index vector the IA benchmark gathers through.
func Permutation(n int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	p := rng.Perm(n)
	return p
}

// Xpose describes one instance of the matrix-transposition benchmark:
//
//	do k=1,M; do j=1,N; do i=1,N; b(i,j,k)=a(j,i,k); end do; ...
//
// In column-major storage the inner i-loop reads a at stride N and
// writes b at stride 1: a strided (scatter-like) access pattern.
type Xpose struct{ N, M int }

// Trace returns the trace: N*M trips of a stride-N load and unit store
// of vector length N.
func (k Xpose) Trace() prog.Program {
	return prog.Simple(fmt.Sprintf("XPOSE(N=%d,M=%d)", k.N, k.M), int64(k.N)*int64(k.M),
		prog.Op{Class: prog.VLoad, VL: k.N, Stride: k.N},
		prog.Op{Class: prog.VStore, VL: k.N, Stride: 1},
	)
}

// PayloadBytes counts each element of a moved to b.
func (k Xpose) PayloadBytes() int64 {
	return 2 * WordBytes * int64(k.N) * int64(k.N) * int64(k.M)
}

// Host transposes M matrices of size N x N stored contiguously.
func (k Xpose) Host(a []float64) []float64 {
	if len(a) != k.N*k.N*k.M {
		panic("kernels: XPOSE input shape mismatch")
	}
	b := make([]float64, len(a))
	n := k.N
	for m := 0; m < k.M; m++ {
		base := m * n * n
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				b[base+j*n+i] = a[base+i*n+j]
			}
		}
	}
	return b
}

// CopySweep returns the paper's COPY sweep: the copy axis N ranges over
// 1..10^6 with N*M ~= 10^6.
func CopySweep(perDecade int) []Copy {
	var ks []Copy
	for _, p := range sweepPairs(1_000_000, 1, 1_000_000, perDecade) {
		ks = append(ks, Copy{N: p.n, M: p.m})
	}
	return ks
}

// IASweep returns the IA sweep: gather axis 1..10^6, constant volume.
func IASweep(perDecade int) []IA {
	var ks []IA
	for _, p := range sweepPairs(1_000_000, 1, 1_000_000, perDecade) {
		ks = append(ks, IA{N: p.n, M: p.m})
	}
	return ks
}

// XposeSweep returns the XPOSE sweep: matrix size 2..10^3 with
// N^2*M ~= 10^6 (instance axis 250000..1).
func XposeSweep(perDecade int) []Xpose {
	var ks []Xpose
	for _, p := range sweepPairs(1000, 2, 1000, perDecade) {
		m := 1_000_000 / (p.n * p.n)
		if m < 1 {
			m = 1
		}
		ks = append(ks, Xpose{N: p.n, M: m})
	}
	return ks
}

type pair struct{ n, m int }

func sweepPairs(volume, minN, maxN, perDecade int) []pair {
	var ps []pair
	seen := map[int]bool{}
	// log-spaced N values.
	ratio := float64(maxN) / float64(minN)
	steps := perDecade
	for ratio >= 10 {
		steps += perDecade
		ratio /= 10
	}
	for i := 0; i <= steps; i++ {
		f := float64(i) / float64(steps)
		n := int(0.5 + float64(minN)*math.Pow(float64(maxN)/float64(minN), f))
		if n < minN {
			n = minN
		}
		if n > maxN {
			n = maxN
		}
		if seen[n] {
			continue
		}
		seen[n] = true
		m := volume / n
		if m < 1 {
			m = 1
		}
		ps = append(ps, pair{n, m})
	}
	return ps
}
