package target

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Every backend's model is a pure function: for a fixed configuration,
// a given (program, RunOpts) pair always simulates to the same Result.
// The experiment runners exploit no such thing on their own — the
// KTRIES best-of-k rule re-times every trace k times, and the tables
// and figures re-time the same COPY/IA/XPOSE/FFT traces at overlapping
// (N, M) points. The Memo memoizes evaluations so each distinct trace
// is simulated once per machine; the jitter the KTRIES rule smooths is
// applied by core.Noise *outside* the simulation, so caching does not
// change any reported number. The key carries the target's config
// fingerprint, so warm-cache results stay byte-identical across
// backends. A machine's configuration is fixed at construction, so
// every entry a memo holds stays valid for the memo's lifetime.
//
// The memo is sharded: keys hash onto a power-of-two array of
// independently locked maps, so memo-cold sweeps running under the
// parallel experiment engine contend per shard, not on one global
// mutex.

// MemoKey identifies one memoizable evaluation.
type MemoKey struct {
	// Config is the target's configuration fingerprint
	// (Target.Fingerprint), Program the trace fingerprint
	// (prog.Program.Fingerprint).
	Config  uint64
	Program uint64
	Opts    RunOpts
}

// memoShards is the shard count: a power of two so the key hash maps
// onto a shard with a mask. 64 shards keep worst-case contention low
// even at high worker counts while costing only a few kilobytes of
// fixed overhead per memo.
const memoShards = 64

// hash mixes the key's fields into a shard selector with the
// SplitMix64 finalizer, so near-identical keys (same config, adjacent
// opts) still spread across shards.
func (k MemoKey) hash() uint64 {
	x := k.Config ^ k.Program<<1 ^
		uint64(k.Opts.Procs)<<32 ^ uint64(k.Opts.ActiveCPUs)
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// CacheStats reports timing-memo effectiveness counters.
type CacheStats struct {
	Hits, Misses uint64
	// Entries is the number of memoized results currently held.
	Entries int
	// Shards is the number of independently locked segments the memo
	// spreads its entries over; MaxShardEntries is the occupancy of
	// the fullest shard (a balance indicator: with a healthy hash it
	// stays near Entries/Shards).
	Shards          int
	MaxShardEntries int
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

// memoShard is one independently locked segment of the memo.
type memoShard struct {
	mu sync.RWMutex
	m  map[MemoKey]Result
}

// Memo is a concurrency-safe memo of simulated results, shared by the
// SX-4 engine and the comparison-machine models.
type Memo struct {
	hits   atomic.Uint64
	misses atomic.Uint64
	shard  [memoShards]memoShard
}

// NewMemo returns an empty memo.
func NewMemo() *Memo {
	return &Memo{}
}

// Lookup returns the memoized result for k, counting a hit or miss.
// The returned Result is a deep copy; callers may alias it freely.
func (c *Memo) Lookup(k MemoKey) (Result, bool) {
	s := &c.shard[k.hash()&(memoShards-1)]
	s.mu.RLock()
	r, ok := s.m[k]
	s.mu.RUnlock()
	if ok {
		c.hits.Add(1)
		return r.Clone(), true
	}
	c.misses.Add(1)
	return Result{}, false
}

// Store memoizes a result under k (deep-copied on the way in).
func (c *Memo) Store(k MemoKey, r Result) {
	s := &c.shard[k.hash()&(memoShards-1)]
	s.mu.Lock()
	if s.m == nil {
		s.m = make(map[MemoKey]Result)
	}
	s.m[k] = r.Clone()
	s.mu.Unlock()
}

// Stats returns the memo's counters, including shard occupancy.
func (c *Memo) Stats() CacheStats {
	st := CacheStats{
		Hits:   c.hits.Load(),
		Misses: c.misses.Load(),
		Shards: memoShards,
	}
	for i := range c.shard {
		s := &c.shard[i]
		s.mu.RLock()
		n := len(s.m)
		s.mu.RUnlock()
		st.Entries += n
		if n > st.MaxShardEntries {
			st.MaxShardEntries = n
		}
	}
	return st
}
