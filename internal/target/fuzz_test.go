package target

import (
	"bytes"
	"testing"
)

// fuzzValue is the fuzz cache's value for fp: a pure function of the
// key, 0 to 47 bytes long, so sizes vary across a generation's share.
func fuzzValue(fp uint64) []byte {
	return bytes.Repeat([]byte{byte(fp)}, int(fp%48))
}

// fuzzSize is the fuzz cache's entry cost: the value plus an 8-byte
// overhead, so even an empty value counts.
func fuzzSize(v []byte) int64 { return int64(len(v)) + 8 }

// FuzzFPCacheBudget decodes its input into Load, LoadOrStore, Store
// and Range calls on a tiny-budget cache (the first byte picks a
// generation share of 8 to 71 bytes, so a shard holds a few entries
// and rotates often) and checks after every call that a hit returns
// exactly the key's value, the bytes held stay within the budget and
// match what Range visits, hits + misses equal the lookups made, and
// the values stored equal the entries held plus the evictions.
func FuzzFPCacheBudget(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{3, 1, 1, 1, 65, 1, 129, 0, 1, 193, 0})
	f.Add([]byte{63, 1, 5, 1, 69, 1, 133, 1, 197, 0, 5, 2, 69, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		budget := int64(8+data[0]%64) * 2 * fpShards
		var c FPCache[[]byte]
		c.SetBudget(budget, fuzzSize)
		var lookups, stores uint64
		check := func(op string, fp uint64, v []byte, hit bool) {
			if hit && !bytes.Equal(v, fuzzValue(fp)) {
				t.Fatalf("%s(%d) hit returned %q, want %q", op, fp, v, fuzzValue(fp))
			}
			st := c.Stats()
			if st.Bytes > budget {
				t.Fatalf("after %s(%d): %d bytes held, budget %d", op, fp, st.Bytes, budget)
			}
			if st.Hits+st.Misses != lookups {
				t.Fatalf("after %s(%d): hits %d + misses %d != %d lookups", op, fp, st.Hits, st.Misses, lookups)
			}
			if uint64(st.Entries)+st.Evictions != stores {
				t.Fatalf("after %s(%d): %d entries + %d evictions != %d stores", op, fp, st.Entries, st.Evictions, stores)
			}
		}
		// Each call is two bytes: the low two bits of the first pick
		// the call, the second the key (256 keys over 64 shards).
		for i := 1; i+1 < len(data); i += 2 {
			fp := uint64(data[i+1])
			switch data[i] % 4 {
			case 0:
				lookups++
				v, ok := c.Load(fp)
				check("Load", fp, v, ok)
			case 1:
				lookups++
				made := false
				v := c.LoadOrStore(fp, func() []byte { made = true; return fuzzValue(fp) })
				if made {
					stores++
				}
				check("LoadOrStore", fp, v, true)
			case 2:
				if c.Store(fp, fuzzValue(fp)) {
					stores++
				}
				check("Store", fp, nil, false)
			case 3:
				n, held := 0, int64(0)
				c.Range(func(fp uint64, v []byte) bool {
					if !bytes.Equal(v, fuzzValue(fp)) {
						t.Fatalf("Range: %d holds %q, want %q", fp, v, fuzzValue(fp))
					}
					n++
					held += fuzzSize(v)
					return true
				})
				if st := c.Stats(); n != st.Entries || held != st.Bytes {
					t.Fatalf("Range visited %d entries of %d bytes, stats say %d of %d", n, held, st.Entries, st.Bytes)
				}
				check("Range", 0, nil, false)
			}
		}
	})
}
