package target

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
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

// sameShard returns n fingerprints that all land in one shard, so a
// test can drive that shard's generations deterministically.
func sameShard(n int) []uint64 {
	var fps []uint64
	for fp := uint64(1); len(fps) < n; fp++ {
		if fpShardOf(fp) == fpShardOf(1) {
			fps = append(fps, fp)
		}
	}
	return fps
}

// lenBytes is the budget tests' entry cost: a value's length.
func lenBytes(v string) int64 { return int64(len(v)) }

// val40 is a 40-byte value derived from the fingerprint.
func val40(fp uint64) string { return fmt.Sprintf("%040d", fp) }

// TestFPCacheBudget pins the two-generation policy on one shard whose
// generation share is 100 bytes (a 12 800-byte budget): three 40-byte
// entries force a rotation, the next rotation drops the aged
// generation as evictions, an old-generation hit is promoted and so
// survives, and a value larger than a generation is returned but never
// held.
func TestFPCacheBudget(t *testing.T) {
	const budget = 100 * 2 * fpShards
	k := sameShard(6)
	type want struct {
		held      []uint64 // must hit
		gone      []uint64 // must miss
		evictions uint64
	}
	for _, tc := range []struct {
		name string
		ops  func(c *FPCache[string])
		want want
	}{
		{"fill one generation", func(c *FPCache[string]) {
			c.LoadOrStore(k[0], func() string { return val40(k[0]) })
			c.LoadOrStore(k[1], func() string { return val40(k[1]) })
		}, want{held: k[:2]}},
		{"rotation ages the generation, evicting nothing", func(c *FPCache[string]) {
			for _, fp := range k[:3] {
				c.LoadOrStore(fp, func() string { return val40(fp) })
			}
		}, want{held: k[:3]}},
		{"second rotation drops the aged generation", func(c *FPCache[string]) {
			for _, fp := range k[:5] {
				c.LoadOrStore(fp, func() string { return val40(fp) })
			}
		}, want{held: k[2:5], gone: k[:2], evictions: 2}},
		{"old-generation hit is promoted", func(c *FPCache[string]) {
			for _, fp := range k[:3] {
				c.LoadOrStore(fp, func() string { return val40(fp) })
			}
			c.Load(k[0]) // aged; moves back to the current generation
			c.LoadOrStore(k[3], func() string { return val40(k[3]) })
		}, want{held: []uint64{k[0], k[2], k[3]}, gone: k[1:2], evictions: 1}},
		{"oversized value is returned, never held", func(c *FPCache[string]) {
			big := strings.Repeat("x", 101)
			if got := c.LoadOrStore(k[0], func() string { return big }); got != big {
				t.Errorf("oversized LoadOrStore returned %q", got)
			}
		}, want{gone: k[:1], evictions: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var c FPCache[string]
			c.SetBudget(budget, lenBytes)
			tc.ops(&c)
			st := c.Stats()
			if st.Entries != len(tc.want.held) || st.Evictions != tc.want.evictions {
				t.Fatalf("stats %+v, want %d entries and %d evictions", st, len(tc.want.held), tc.want.evictions)
			}
			if want := int64(40 * len(tc.want.held)); st.Bytes != want {
				t.Errorf("bytes = %d, want %d", st.Bytes, want)
			}
			if st.Bytes > budget {
				t.Errorf("bytes %d over budget %d", st.Bytes, budget)
			}
			n, bytes := 0, int64(0)
			c.Range(func(fp uint64, v string) bool {
				n++
				bytes += lenBytes(v)
				if v != val40(fp) {
					t.Errorf("Range: %d holds %q", fp, v)
				}
				return true
			})
			if n != st.Entries || bytes != st.Bytes {
				t.Errorf("Range visited %d entries of %d bytes, stats say %d of %d", n, bytes, st.Entries, st.Bytes)
			}
			for _, fp := range tc.want.held {
				if v, ok := c.Load(fp); !ok || v != val40(fp) {
					t.Errorf("Load(%d) = %q,%v, want a hit", fp, v, ok)
				}
			}
			for _, fp := range tc.want.gone {
				if _, ok := c.Load(fp); ok {
					t.Errorf("Load(%d) hit an entry that should be gone", fp)
				}
			}
		})
	}
}

// TestFPCacheBudgetStore pins the warm-start rule under a budget: Store
// fills the current generation, ages it once into an empty previous
// generation, then refuses instead of evicting, so the first values
// stored are the ones kept; it never counts a lookup.
func TestFPCacheBudgetStore(t *testing.T) {
	var c FPCache[string]
	c.SetBudget(100*2*fpShards, lenBytes)
	k := sameShard(6)
	var got []bool
	for _, fp := range k[:5] {
		got = append(got, c.Store(fp, val40(fp)))
	}
	if want := []bool{true, true, true, true, false}; !slices.Equal(got, want) {
		t.Fatalf("Store results %v, want %v", got, want)
	}
	if c.Store(k[0], "other") {
		t.Fatal("Store replaced an aged entry")
	}
	if c.Store(k[5], strings.Repeat("x", 101)) {
		t.Fatal("Store held a value larger than a generation")
	}
	st := c.Stats()
	if st.Hits != 0 || st.Misses != 0 || st.Entries != 4 || st.Evictions != 0 || st.Bytes != 160 {
		t.Fatalf("after warm start, stats = %+v, want 0 hits, 0 misses, 4 entries, 0 evictions, 160 bytes", st)
	}
	if v, ok := c.Load(k[0]); !ok || v != val40(k[0]) {
		t.Fatalf("aged warm-start entry = %q,%v", v, ok)
	}
}

// TestFPCacheSetBudget pins the knob's edges: a non-positive budget
// leaves the cache unbounded, and a budget below one byte per
// generation still bounds it.
func TestFPCacheSetBudget(t *testing.T) {
	var c FPCache[string]
	c.SetBudget(0, lenBytes)
	for _, fp := range sameShard(50) {
		c.LoadOrStore(fp, func() string { return val40(fp) })
	}
	if st := c.Stats(); st.Entries != 50 || st.Evictions != 0 || st.Bytes != 0 {
		t.Fatalf("unbounded cache stats = %+v, want 50 entries, nothing evicted or counted", st)
	}
	var tiny FPCache[string]
	tiny.SetBudget(1, lenBytes)
	tiny.LoadOrStore(1, func() string { return "x" })
	tiny.LoadOrStore(2, func() string { return "yy" })
	if st := tiny.Stats(); st.Entries != 1 || st.Evictions != 1 || st.Bytes != 1 {
		t.Fatalf("one-byte-generation cache stats = %+v, want the 1-byte value held, the 2-byte one evicted", st)
	}
}

// TestFPCacheBudgetConcurrent races LoadOrStore on one cold key under
// a tiny budget (run it under -race): every caller sees the maker's
// value, whether the value fits a generation or is too large to hold.
func TestFPCacheBudgetConcurrent(t *testing.T) {
	for _, tc := range []struct {
		name  string
		value string
		held  int
	}{
		{"fits", val40(7), 1},
		{"oversized", strings.Repeat("z", 65), 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var c FPCache[string]
			c.SetBudget(64*2*fpShards, lenBytes)
			const workers, perWorker = 8, 100
			var made atomic.Uint64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perWorker; i++ {
						got := c.LoadOrStore(7, func() string { made.Add(1); return tc.value })
						if got != tc.value {
							t.Errorf("LoadOrStore = %q, want %q", got, tc.value)
							return
						}
					}
				}()
			}
			wg.Wait()
			st := c.Stats()
			if st.Hits+st.Misses != workers*perWorker {
				t.Errorf("hits %d + misses %d != %d lookups", st.Hits, st.Misses, workers*perWorker)
			}
			if st.Entries != tc.held || st.Bytes != int64(tc.held*len(tc.value)) {
				t.Errorf("stats %+v, want %d entries", st, tc.held)
			}
			if tc.held == 0 && st.Evictions != made.Load() {
				t.Errorf("evictions %d, want one per make (%d)", st.Evictions, made.Load())
			}
		})
	}
}
