package target

import (
	"fmt"
	"sync"
	"testing"
)

// TestMemoShardSpread: distinct keys must land on more than one shard
// (the sharded memo's whole point), and every stored key must remain
// retrievable.
func TestMemoShardSpread(t *testing.T) {
	m := NewMemo()
	const n = 1024
	for i := 0; i < n; i++ {
		k := MemoKey{Config: 7, Program: uint64(i), Opts: RunOpts{Procs: i % 32}}
		m.Store(k, Result{Clocks: float64(i)})
	}
	st := m.Stats()
	if st.Entries != n {
		t.Fatalf("Entries = %d, want %d", st.Entries, n)
	}
	if st.Shards != memoShards {
		t.Errorf("Shards = %d, want %d", st.Shards, memoShards)
	}
	// A healthy hash keeps the fullest shard well under the whole key
	// population; 4x the ideal average is a loose balance bound.
	if ideal := n / memoShards; st.MaxShardEntries > 4*ideal {
		t.Errorf("MaxShardEntries = %d with ideal %d: shard hash is unbalanced",
			st.MaxShardEntries, ideal)
	}
	for i := 0; i < n; i++ {
		k := MemoKey{Config: 7, Program: uint64(i), Opts: RunOpts{Procs: i % 32}}
		r, ok := m.Lookup(k)
		if !ok || r.Clocks != float64(i) {
			t.Fatalf("key %d: lookup = (%v, %v)", i, r.Clocks, ok)
		}
	}
}

// TestMemoConcurrent: concurrent stores and lookups must be race-free
// (run under -race) and never corrupt the hit/miss accounting.
func TestMemoConcurrent(t *testing.T) {
	m := NewMemo()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := MemoKey{Config: uint64(g%2 + 1), Program: uint64(i % 64)}
				if r, ok := m.Lookup(k); ok {
					if r.Clocks != float64(k.Program) {
						t.Errorf("lookup returned foreign result: %v for %v", r.Clocks, k)
					}
					continue
				}
				m.Store(k, Result{Clocks: float64(k.Program)})
			}
		}(g)
	}
	wg.Wait()
	st := m.Stats()
	if st.Hits+st.Misses != 8*500 {
		t.Errorf("hits+misses = %d, want %d", st.Hits+st.Misses, 8*500)
	}
}

// TestMemoLookupIsolation: the memo must hand out deep copies — a
// caller mutating a looked-up result cannot corrupt the stored one.
func TestMemoLookupIsolation(t *testing.T) {
	m := NewMemo()
	k := MemoKey{Config: 1, Program: 1}
	m.Store(k, Result{Phases: []PhaseTime{{Name: "a", Clocks: 1}}})
	r1, _ := m.Lookup(k)
	r1.Phases[0].Clocks = 99
	r2, _ := m.Lookup(k)
	if r2.Phases[0].Clocks != 1 {
		t.Errorf("stored result was mutated through a lookup alias: %v", r2.Phases[0])
	}
}

func BenchmarkMemoLookupParallel(b *testing.B) {
	m := NewMemo()
	const keys = 4096
	for i := 0; i < keys; i++ {
		m.Store(MemoKey{Config: 1, Program: uint64(i)}, Result{Clocks: float64(i)})
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			k := MemoKey{Config: 1, Program: uint64(i % keys)}
			if _, ok := m.Lookup(k); !ok {
				b.Fatal("miss on a warmed key")
			}
			i++
		}
	})
}

func BenchmarkMemoStoreParallel(b *testing.B) {
	m := NewMemo()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			m.Store(MemoKey{Config: 1, Program: uint64(i)}, Result{})
			i++
		}
	})
}

// ExampleCacheStats_String pins the human-readable stats line the
// CLIs print under -cachestats.
func ExampleCacheStats_String() {
	s := CacheStats{Hits: 3, Misses: 1, Entries: 2}
	fmt.Println(s)
	// Output: 3 hits, 1 misses (75.0% hit rate), 2 entries
}
