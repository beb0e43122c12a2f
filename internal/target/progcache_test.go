package target

import (
	"fmt"
	"sync"
	"testing"
)

func TestFPCacheStats(t *testing.T) {
	var c FPCache[int]
	if st := c.Stats(); st != (CacheStats{}) {
		t.Fatalf("fresh cache stats = %+v, want zero", st)
	}
	if _, ok := c.Load(7); ok {
		t.Fatal("Load hit on an empty cache")
	}
	got := c.LoadOrStore(7, func() int { return 42 })
	if got != 42 {
		t.Fatalf("LoadOrStore = %d, want 42", got)
	}
	if v, ok := c.Load(7); !ok || v != 42 {
		t.Fatalf("Load after store = %d,%v", v, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit (the re-Load), 2 misses (cold Load + LoadOrStore), 1 entry", st)
	}
	if hr := st.HitRate(); hr <= 0.33 || hr >= 0.34 {
		t.Fatalf("hit rate = %v, want 1/3", hr)
	}
}

// TestFPCacheStoreRange pins the warm-start surface: Store inserts
// without perturbing hit/miss counters and never overwrites a live
// entry, and Range visits exactly the stored population.
func TestFPCacheStoreRange(t *testing.T) {
	var c FPCache[string]
	for i := uint64(0); i < 100; i++ {
		c.Store(i, "snap")
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 || st.Entries != 100 {
		t.Fatalf("after 100 Stores, stats = %+v, want 0 hits, 0 misses, 100 entries", st)
	}
	// A live entry wins over a snapshot replay.
	c.LoadOrStore(200, func() string { return "live" })
	c.Store(200, "snap")
	if v, ok := c.Load(200); !ok || v != "live" {
		t.Fatalf("Store overwrote a live entry: got %q", v)
	}
	seen := make(map[uint64]string)
	c.Range(func(fp uint64, v string) bool {
		seen[fp] = v
		return true
	})
	if len(seen) != 101 {
		t.Fatalf("Range visited %d entries, want 101", len(seen))
	}
	if seen[7] != "snap" || seen[200] != "live" {
		t.Fatalf("Range contents wrong: %q %q", seen[7], seen[200])
	}
	// Early termination: a false return stops the walk.
	n := 0
	c.Range(func(uint64, string) bool { n++; return false })
	if n != 1 {
		t.Fatalf("Range after false return visited %d entries, want 1", n)
	}
}

// TestFPCacheStatsConcurrent pins the counters' race-freedom: total
// lookups must equal hits+misses whatever the interleaving.
func TestFPCacheStatsConcurrent(t *testing.T) {
	var c FPCache[uint64]
	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				fp := uint64(i % 32)
				c.LoadOrStore(fp, func() uint64 { return fp * fp })
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Entries != 32 {
		t.Fatalf("entries = %d, want 32", st.Entries)
	}
	// Every LoadOrStore records exactly one inner-Load hit or miss;
	// racing losers of a cold fingerprint may add an extra miss via the
	// second locked check's preceding Load, but never lose a count.
	if st.Hits+st.Misses < workers*perWorker {
		t.Fatalf("hits %d + misses %d < %d lookups", st.Hits, st.Misses, workers*perWorker)
	}
	if st.Misses < 32 {
		t.Fatalf("misses = %d, want at least one per distinct fingerprint", st.Misses)
	}
}

// ExampleCacheStats_String pins the human-readable stats line the
// CLIs print under -cachestats.
func ExampleCacheStats_String() {
	s := CacheStats{Hits: 3, Misses: 1, Entries: 2}
	fmt.Println(s)
	// Output: 3 hits, 1 misses (75.0% hit rate), 2 entries
}
