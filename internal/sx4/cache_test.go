package sx4

import (
	"reflect"
	"sync"
	"testing"

	"sx4bench/internal/sx4/prog"
)

func cacheTestProgram(vl int) prog.Program {
	return prog.Simple("cache-test", 100,
		prog.Op{Class: prog.VLoad, VL: vl, Stride: 1},
		prog.Op{Class: prog.VAdd, VL: vl},
		prog.Op{Class: prog.VStore, VL: vl, Stride: 1},
	)
}

// TestCacheMatchesFreshSimulation is the compiled-trace cache's
// correctness contract: a run through a cached compiled trace must
// equal a fresh interpretation exactly, field for field.
func TestCacheMatchesFreshSimulation(t *testing.T) {
	m := New(Benchmarked())

	opts := []RunOpts{{Procs: 1}, {Procs: 8}, {Procs: 4, ActiveCPUs: 32}}
	for _, vl := range []int{1, 100, 256, 4096} {
		p := cacheTestProgram(vl)
		for _, o := range opts {
			first := m.Run(p, o)
			second := m.Run(p, o)
			direct := m.Interpret(p, o)
			if !reflect.DeepEqual(first, direct) {
				t.Fatalf("vl=%d opts=%+v: first cached run != interpreted simulation", vl, o)
			}
			if !reflect.DeepEqual(second, direct) {
				t.Fatalf("vl=%d opts=%+v: repeated run != interpreted simulation", vl, o)
			}
		}
	}
	// One compile per program, whatever the opts; Interpret bypasses
	// the cache, so only the 24 Run calls are counted.
	stats := m.CacheStats()
	if stats.Hits != 20 || stats.Misses != 4 || stats.Entries != 4 {
		t.Errorf("stats = %+v, want 20 hits, 4 misses and 4 entries", stats)
	}
}

// TestCacheKeyDiscriminates: different programs, opts, or configs must
// not collide.
func TestCacheKeyDiscriminates(t *testing.T) {
	m := New(Benchmarked())
	a := m.Run(cacheTestProgram(100), RunOpts{Procs: 1})
	b := m.Run(cacheTestProgram(200), RunOpts{Procs: 1})
	c := m.Run(cacheTestProgram(100), RunOpts{Procs: 2})
	if a.Clocks == b.Clocks {
		t.Error("different programs timed identically (suspicious collision)")
	}
	if a.Clocks == c.Clocks {
		t.Error("different opts timed identically (suspicious collision)")
	}

	slow := Benchmarked()
	slow.ClockNS = 16.0
	m2 := New(slow)
	d := m2.Run(cacheTestProgram(100), RunOpts{Procs: 1})
	if a.Seconds == d.Seconds {
		t.Error("different configs timed identically")
	}
}

// TestCacheConcurrent hammers one machine from many goroutines; run
// under -race this is the engine-safety test.
func TestCacheConcurrent(t *testing.T) {
	m := New(Benchmarked())
	want := m.Run(cacheTestProgram(256), RunOpts{Procs: 1})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				vl := 1 + (g*50+i)%7*64
				p := cacheTestProgram(vl)
				r := m.Run(p, RunOpts{Procs: 1})
				if r.Clocks <= 0 {
					t.Errorf("non-positive clocks for vl=%d", vl)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	again := m.Run(cacheTestProgram(256), RunOpts{Procs: 1})
	if !reflect.DeepEqual(want, again) {
		t.Error("concurrent use corrupted a cached result")
	}
}

func TestConfigFingerprintSensitivity(t *testing.T) {
	a := configFingerprint(Benchmarked())
	if a != configFingerprint(Benchmarked()) {
		t.Error("fingerprint not deterministic")
	}
	c := Benchmarked()
	c.StridedPenalty += 0.1
	if configFingerprint(c) == a {
		t.Error("calibration change did not change the fingerprint")
	}
}
