package target

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// FPCache is a sharded concurrent cache keyed by 64-bit fingerprint:
// the machine models' compiled traces, sx4d's response bodies, the
// fleet engine's scenarios and prodload's results. Reads vastly
// outnumber writes and must not contend across worker goroutines.
//
// The zero value is ready to use and unbounded. SetBudget bounds it:
// each shard then keeps two generations, inserts fill the current one,
// and when an insert would pass the generation's share of the budget
// the previous generation is dropped whole (its entries count as
// evictions) and the current one takes its place. A hit in the
// previous generation moves the entry back into the current one, so
// whatever is still being asked for survives a rotation. A current-
// generation hit stays one map read under the shard's read lock.
//
// Values must be immutable once stored (the cache hands back the
// stored value itself, never a copy); the maker passed to LoadOrStore
// must be a pure function of the fingerprint, since concurrent first
// loads may each invoke it and any one result may win. That purity is
// also what makes eviction safe: a recompute yields the evicted value.
type FPCache[V any] struct {
	hits, misses, evictions atomic.Uint64
	// held is the budgeted size of every entry in both generations; it
	// stays 0 for an unbounded cache.
	held atomic.Int64
	// gen is one generation's share of the budget in each shard, and
	// size an entry's cost against it; gen == 0 means unbounded.
	gen   int64
	size  func(V) int64
	shard [fpShards]fpShard[V]
}

// CacheStats reports a fingerprint cache's effectiveness counters: the
// numbers -cachestats prints and /v1/stats surfaces. A LoadOrStore
// that computes counts as one miss; the racing losers of a concurrent
// first load each count their own miss (they did the work).
type CacheStats struct {
	Hits, Misses uint64
	// Entries is the number of values currently held.
	Entries int
	// Evictions counts entries a budgeted cache dropped, and Bytes the
	// budgeted size of the entries it holds; both stay 0 unbounded.
	Evictions uint64
	Bytes     int64
}

// HitRate returns the fraction of lookups served from the cache.
func (s CacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

func (s CacheStats) String() string {
	return fmt.Sprintf("%d hits, %d misses (%.1f%% hit rate), %d entries",
		s.Hits, s.Misses, 100*s.HitRate(), s.Entries)
}

const fpShards = 64 // power of two, masked below

// fpShard holds the shard's current generation m and, once a bounded
// cache has rotated, the previous generation old. A fingerprint lives
// in at most one of the two. cur is the budgeted size of m.
type fpShard[V any] struct {
	mu  sync.RWMutex
	m   map[uint64]V
	old map[uint64]V
	cur int64
}

// fpShardOf mixes the fingerprint before masking so that structured
// fingerprints still spread over the shard array.
func fpShardOf(fp uint64) uint64 {
	fp ^= fp >> 33
	fp *= 0xff51afd7ed558ccd
	fp ^= fp >> 33
	return fp & (fpShards - 1)
}

// SetBudget bounds the cache to budget bytes, as size counts an
// entry; budget <= 0 leaves it unbounded. Each shard holds at most
// budget/64 bytes in two generations of budget/128, so an entry larger
// than budget/128 is returned to its caller but never held: the
// smallest useful budget is 128 times the largest entry. Call it once,
// before the cache is shared.
func (c *FPCache[V]) SetBudget(budget int64, size func(V) int64) {
	if budget <= 0 {
		c.gen, c.size = 0, nil
		return
	}
	c.gen, c.size = max(1, budget/(2*fpShards)), size
}

// Load returns the cached value for fp, counting a hit or miss.
func (c *FPCache[V]) Load(fp uint64) (V, bool) {
	s := &c.shard[fpShardOf(fp)]
	s.mu.RLock()
	v, ok := s.m[fp]
	aged := false
	if !ok && s.old != nil {
		_, aged = s.old[fp]
	}
	s.mu.RUnlock()
	if aged {
		s.mu.Lock()
		v, ok = c.lookupLocked(s, fp)
		s.mu.Unlock()
	}
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return v, ok
}

// LoadOrStore returns the cached value for fp, invoking mk and
// caching its result on the first load. mk runs outside the shard
// lock, so a slow compile never blocks readers of other entries in
// the same shard; when two goroutines race on the same cold
// fingerprint, the first store wins and both observe it.
func (c *FPCache[V]) LoadOrStore(fp uint64, mk func() V) V {
	if v, ok := c.Load(fp); ok {
		return v
	}
	v := mk()
	s := &c.shard[fpShardOf(fp)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := c.lookupLocked(s, fp); ok {
		return prev
	}
	c.insertLocked(s, fp, v, true)
	return v
}

// Store inserts a value without touching the hit/miss counters: the
// warm-start path, where a daemon pre-populates the cache from a disk
// snapshot before serving its first query. It never displaces
// anything: an existing entry is left in place (snapshots never
// overwrite live, newer state), and under a budget a full shard
// refuses the value instead of evicting, so the first values stored
// are the ones kept. It reports whether v was installed.
func (c *FPCache[V]) Store(fp uint64, v V) bool {
	s := &c.shard[fpShardOf(fp)]
	s.mu.Lock()
	defer s.mu.Unlock()
	_, live := s.m[fp]
	_, aged := s.old[fp]
	if live || aged {
		return false
	}
	return c.insertLocked(s, fp, v, false)
}

// lookupLocked finds fp in either generation, moving a previous-
// generation entry back into the current one. The caller holds s.mu
// for writing.
func (c *FPCache[V]) lookupLocked(s *fpShard[V], fp uint64) (V, bool) {
	if v, ok := s.m[fp]; ok {
		return v, true
	}
	v, ok := s.old[fp]
	if ok {
		delete(s.old, fp)
		c.held.Add(-c.size(v))
		c.insertLocked(s, fp, v, true)
	}
	return v, ok
}

// insertLocked adds fp, which neither generation holds, to the
// current generation; under a budget it first rotates when v would
// pass the generation's share. evict says whether the rotation may
// drop a non-empty previous generation; when it may not, v is refused.
// A value larger than a whole generation is never held; when evict is
// set it counts as evicted on arrival. The caller holds s.mu for
// writing. It reports whether v is held.
func (c *FPCache[V]) insertLocked(s *fpShard[V], fp uint64, v V, evict bool) bool {
	var n int64
	if c.gen > 0 {
		n = c.size(v)
		if n > c.gen {
			if evict {
				c.evictions.Add(1)
			}
			return false
		}
		if s.cur+n > c.gen {
			if len(s.old) > 0 && !evict {
				return false
			}
			c.rotateLocked(s)
		}
		s.cur += n
		c.held.Add(n)
	}
	if s.m == nil {
		s.m = make(map[uint64]V)
	}
	s.m[fp] = v
	return true
}

// rotateLocked drops the previous generation and ages the current one
// into its place. The caller holds s.mu for writing. The dropped
// generation's size is summed here, once per evicted entry, instead of
// kept in the shard, so unbounded caches pay 16 bytes per shard for
// the budget, not 24.
func (c *FPCache[V]) rotateLocked(s *fpShard[V]) {
	var dropped int64
	for _, v := range s.old {
		dropped += c.size(v)
	}
	c.evictions.Add(uint64(len(s.old)))
	c.held.Add(-dropped)
	s.old, s.m, s.cur = s.m, nil, 0
}

// Range calls f for every cached entry, in both generations, until f
// returns false. The iteration order is unspecified (per-shard map
// order); callers that render the contents — the snapshot writer —
// must collect and sort. f must not call back into the cache (the
// shard lock is held).
func (c *FPCache[V]) Range(f func(fp uint64, v V) bool) {
	for i := range c.shard {
		s := &c.shard[i]
		s.mu.RLock()
		for _, m := range [2]map[uint64]V{s.m, s.old} {
			for fp, v := range m {
				if !f(fp, v) {
					s.mu.RUnlock()
					return
				}
			}
		}
		s.mu.RUnlock()
	}
}

// Stats returns the cache's counters. A LoadOrStore that found the
// value counts as the one hit its inner Load recorded.
func (c *FPCache[V]) Stats() CacheStats {
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Entries:   c.Len(),
		Evictions: c.evictions.Load(),
		Bytes:     c.held.Load(),
	}
}

// Len returns the number of cached values.
func (c *FPCache[V]) Len() int {
	n := 0
	for i := range c.shard {
		s := &c.shard[i]
		s.mu.RLock()
		n += len(s.m) + len(s.old)
		s.mu.RUnlock()
	}
	return n
}
