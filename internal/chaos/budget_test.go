package chaos_test

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http/httptest"
	"runtime"
	"runtime/metrics"
	"strings"
	"testing"

	"sx4bench/internal/serve"
)

// sweepCeilingLines is how many distinct queries the heap-ceiling test
// sweeps: about 495 budgeted bytes each, 4.7 MiB in all, six times
// what the response cache's share of a 1 MiB budget holds.
const sweepCeilingLines = 10048

// heapCeiling bounds the live-heap growth the test allows across the
// whole sweep. The response cache may hold 768 KiB of budgeted bytes;
// the rest of the ceiling covers the caches keyed by finite model
// parameters, which the sweep also fills (each machine's compiled
// traces and the package-level trace shapes). On a 2-CPU x86-64 host
// (go1.24) the sweep grew the live heap by 0.6 MiB under the budget,
// and by 4.4 MiB when every answer was kept.
const heapCeiling = 2 << 20

// sweepLines enumerates distinct run queries the way perfbench's
// sweep-cold workload does, over machine × cpus × member subset: four
// multi-CPU machines at every CPU count, each with the first 157
// non-empty subsets of the suite's cheaper members.
func sweepLines() []string {
	members := []string{"PARANOIA", "ELEFUNT", "COPY", "IA", "XPOSE", "RFFT", "VFFT", "RADABS"}
	machines := []struct {
		name string
		cpus int
	}{{"sx4-32", 32}, {"c90", 16}, {"ymp", 8}, {"j90", 8}}
	var lines []string
	for mask := 1; len(lines) < sweepCeilingLines; mask++ {
		var picked []string
		for i, m := range members {
			if mask&(1<<i) != 0 {
				picked = append(picked, `"`+m+`"`)
			}
		}
		for _, m := range machines {
			for cpus := 1; cpus <= m.cpus; cpus++ {
				lines = append(lines, fmt.Sprintf(`{"machine":%q,"benchmarks":[%s],"cpus":%d}`,
					m.name, strings.Join(picked, ","), cpus))
			}
		}
	}
	return lines
}

// liveHeap forces a collection and reads the live heap.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// TestSweepHeapCeiling is sweep-cold in miniature: more than 10 000
// never-seen queries through /v1/sweep at a 1 MiB budget. Afterwards
// the live heap must have grown by less than heapCeiling, the response
// cache must hold no more than its budget, and the first query, long
// since evicted, must come back as a fresh execution with the first
// answer's exact bytes.
func TestSweepHeapCeiling(t *testing.T) {
	const budget = 1 << 20
	lines := sweepLines()
	base := liveHeap()
	srv := serve.New(serve.Config{CacheBytes: budget})
	var first []byte
	const perSweep = 100
	for i := 0; i < len(lines); i += perSweep {
		body := strings.Join(lines[i:min(i+perSweep, len(lines))], "\n") + "\n"
		rr := httptest.NewRecorder()
		srv.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/sweep", strings.NewReader(body)))
		sc := bufio.NewScanner(rr.Body)
		n := 0
		for sc.Scan() {
			if bytes.Contains(sc.Bytes(), []byte(`"error"`)) {
				t.Fatalf("sweep line %d failed: %s", i+n, sc.Bytes())
			}
			if i+n == 0 {
				first = append(append([]byte(nil), sc.Bytes()...), '\n')
			}
			n++
		}
		if n != min(perSweep, len(lines)-i) {
			t.Fatalf("sweep at line %d answered %d lines", i, n)
		}
	}
	grown := int64(liveHeap()) - int64(base)
	st := stats(t, srv)
	t.Logf("%d lines: live heap +%.2f MiB; response cache %d entries, %d bytes, %d evictions",
		len(lines), float64(grown)/(1<<20), st.CacheEntries, st.CacheBytes, st.CacheEvictions)
	if grown > heapCeiling {
		t.Errorf("live heap grew %d bytes over a %d-line sweep, ceiling %d", grown, len(lines), heapCeiling)
	}
	if st.CacheBytes > budget || st.CacheEvictions == 0 {
		t.Errorf("response cache holds %d bytes after %d evictions, budget %d", st.CacheBytes, st.CacheEvictions, budget)
	}

	rr := httptest.NewRecorder()
	srv.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/run", strings.NewReader(lines[0])))
	if got := rr.Header().Get("X-Sx4d-Cache"); rr.Code != 200 || got != "miss" {
		t.Fatalf("first query asked again: %d cache=%q, want 200 miss (evicted)", rr.Code, got)
	}
	if !bytes.Equal(rr.Body.Bytes(), first) {
		t.Fatalf("recomputed answer differs from the evicted one:\n%s\nvs\n%s", rr.Body.Bytes(), first)
	}
}
