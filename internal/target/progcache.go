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
// The zero value is ready to use. Values must be immutable once
// stored (the cache hands back the stored value itself, never a
// copy); the maker passed to LoadOrStore must be a pure function of
// the fingerprint, since concurrent first loads may each invoke it
// and any one result may win.
type FPCache[V any] struct {
	hits   atomic.Uint64
	misses atomic.Uint64
	shard  [fpShards]fpShard[V]
}

// CacheStats reports a fingerprint cache's effectiveness counters: the
// numbers -cachestats prints and /v1/stats surfaces. A LoadOrStore
// that computes counts as one miss; the racing losers of a concurrent
// first load each count their own miss (they did the work).
type CacheStats struct {
	Hits, Misses uint64
	// Entries is the number of values currently held.
	Entries int
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

type fpShard[V any] struct {
	mu sync.RWMutex
	m  map[uint64]V
}

// fpShardOf mixes the fingerprint before masking so that structured
// fingerprints still spread over the shard array.
func fpShardOf(fp uint64) uint64 {
	fp ^= fp >> 33
	fp *= 0xff51afd7ed558ccd
	fp ^= fp >> 33
	return fp & (fpShards - 1)
}

// Load returns the cached value for fp, counting a hit or miss.
func (c *FPCache[V]) Load(fp uint64) (V, bool) {
	s := &c.shard[fpShardOf(fp)]
	s.mu.RLock()
	v, ok := s.m[fp]
	s.mu.RUnlock()
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
	if prev, ok := s.m[fp]; ok {
		s.mu.Unlock()
		return prev
	}
	if s.m == nil {
		s.m = make(map[uint64]V)
	}
	s.m[fp] = v
	s.mu.Unlock()
	return v
}

// Store inserts a value without touching the hit/miss counters: the
// warm-start path, where a daemon pre-populates the cache from a disk
// snapshot before serving its first query. An existing entry is left
// in place — snapshots never overwrite live, newer state.
func (c *FPCache[V]) Store(fp uint64, v V) {
	s := &c.shard[fpShardOf(fp)]
	s.mu.Lock()
	if _, ok := s.m[fp]; !ok {
		if s.m == nil {
			s.m = make(map[uint64]V)
		}
		s.m[fp] = v
	}
	s.mu.Unlock()
}

// Range calls f for every cached entry until f returns false. The
// iteration order is unspecified (per-shard map order); callers that
// render the contents — the snapshot writer — must collect and sort.
// f must not call back into the cache (the shard lock is held).
func (c *FPCache[V]) Range(f func(fp uint64, v V) bool) {
	for i := range c.shard {
		s := &c.shard[i]
		s.mu.RLock()
		for fp, v := range s.m {
			if !f(fp, v) {
				s.mu.RUnlock()
				return
			}
		}
		s.mu.RUnlock()
	}
}

// Stats returns the cache's counters. A LoadOrStore that found the
// value counts as the one hit its inner Load recorded.
func (c *FPCache[V]) Stats() CacheStats {
	return CacheStats{
		Hits:    c.hits.Load(),
		Misses:  c.misses.Load(),
		Entries: c.Len(),
	}
}

// Len returns the number of cached values.
func (c *FPCache[V]) Len() int {
	n := 0
	for i := range c.shard {
		s := &c.shard[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}
