package serve

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// warmServer answers the canonical COPY query once so the cache, the
// counters and one target's memo all have state worth snapshotting.
func warmServer(t *testing.T) *Server {
	t.Helper()
	s := New(Config{Now: fakeClock()})
	if rr := post(t, s, "/v1/run", `{"machine": "sx4-32", "benchmarks": ["COPY"]}`); rr.Code != 200 {
		t.Fatalf("warm-up: %d %s", rr.Code, rr.Body.String())
	}
	return s
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := warmServer(t)
	// A second query hits the cache, so the snapshot carries one hit.
	first := post(t, s, "/v1/run", `{"machine": "sx4-32", "benchmarks": ["COPY"]}`)
	path := filepath.Join(t.TempDir(), "cache.snap")
	if err := s.WriteSnapshot(path); err != nil {
		t.Fatalf("writing snapshot: %v", err)
	}

	// A fresh server restored from the snapshot answers the same query
	// from cache, byte-identically, without executing anything.
	s2 := New(Config{Now: fakeClock()})
	n, err := s2.LoadSnapshot(path)
	if err != nil {
		t.Fatalf("loading snapshot: %v", err)
	}
	if n != 1 {
		t.Fatalf("restored %d entries, want 1", n)
	}
	rr := post(t, s2, "/v1/run", `{"machine": "sx4-32", "benchmarks": ["COPY"]}`)
	if rr.Code != 200 {
		t.Fatalf("restored query: %d %s", rr.Code, rr.Body.String())
	}
	if got := rr.Header().Get("X-Sx4d-Cache"); got != "hit" {
		t.Fatalf("X-Sx4d-Cache after warm start = %q, want hit", got)
	}
	if !bytes.Equal(rr.Body.Bytes(), first.Body.Bytes()) {
		t.Fatalf("restored body differs from original")
	}

	// The books carried over: counters resumed, warm-start provenance
	// visible, memo ledger continuous.
	st := statsSnapshot(t, s2)
	if !st.WarmStart || st.RestoredEntries != 1 {
		t.Fatalf("warm_start=%v restored_entries=%d, want true/1", st.WarmStart, st.RestoredEntries)
	}
	if st.RunsExecuted != 1 {
		t.Fatalf("runs_executed after restore = %d, want 1 (inherited)", st.RunsExecuted)
	}
	if st.CacheHits < 2 {
		t.Fatalf("cache_hits after restore = %d, want >= 2 (1 inherited + 1 new)", st.CacheHits)
	}
	if st.MemoHits+st.MemoMisses == 0 {
		t.Fatalf("memo books did not carry over: %+v", st)
	}
}

// TestSnapshotDeterministic pins render stability: the same state
// always produces the same bytes, regardless of map iteration order.
func TestSnapshotDeterministic(t *testing.T) {
	s := warmServer(t)
	a := s.Snapshot().Render()
	for i := 0; i < 8; i++ {
		if b := s.Snapshot().Render(); !bytes.Equal(a, b) {
			t.Fatalf("render %d differs from first", i)
		}
	}
	// And a parse→render round trip is the identity.
	sn, err := ParseSnapshot(a)
	if err != nil {
		t.Fatalf("parsing own render: %v", err)
	}
	if b := sn.Render(); !bytes.Equal(a, b) {
		t.Fatalf("parse→render is not the identity:\n%s\nvs\n%s", a, b)
	}
}

// snapshotV1 is a snapshot file in the v1 format with every counter
// set to its position in the file.
const snapshotV1 = `sx4d-snapshot v1
counter requests 1
counter run_queries 2
counter sweep_lines 3
counter cache_hits 4
counter coalesced 5
counter runs_executed 6
counter errors 7
counter admit_requests 8
counter admitted 9
counter shed 10
counter queue_timeouts 11
counter queue_cancelled 12
counter completed 13
counter exec_cancelled 14
counter sweep_aborts 15
counter capacity_queries 16
counter capacity_jobs 17
memo sx4-32 41 5
entry deadbeefcafef00d eyJvayI6dHJ1ZX0K
checksum 70f0cd4991357e78
`

// TestSnapshotV1Text pins the file format's counter names and order:
// a v1 file loads, re-renders byte-identically, and every counter
// resumes on its own /v1/stats field.
func TestSnapshotV1Text(t *testing.T) {
	sn, err := ParseSnapshot([]byte(snapshotV1))
	if err != nil {
		t.Fatal(err)
	}
	if got := string(sn.Render()); got != snapshotV1 {
		t.Fatalf("v1 snapshot re-renders as\n%s", got)
	}
	s := New(Config{})
	s.stats.restore(sn.Counters)
	st := s.stats.snapshot()
	got := []uint64{st.Requests, st.RunQueries, st.SweepLines, st.CacheHits, st.Coalesced,
		st.RunsExecuted, st.Errors, st.AdmitRequests, st.Admitted, st.Shed, st.QueueTimeouts,
		st.QueueCancelled, st.Completed, st.ExecCancelled, st.SweepAborts, st.CapacityQueries,
		st.CapacityJobs}
	for i, v := range got {
		if v != uint64(i+1) {
			t.Errorf("counter %s resumed on /v1/stats as %d, want %d", counterNames[i], v, i+1)
		}
	}
}

// TestSnapshotRejectsCorruption drives the all-or-nothing loader: any
// damage — truncation, bit flips, reordered sections, duplicate or
// alien lines — rejects the whole file.
func TestSnapshotRejectsCorruption(t *testing.T) {
	s := warmServer(t)
	good := s.Snapshot().Render()
	if _, err := ParseSnapshot(good); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}

	lines := strings.SplitAfter(strings.TrimSuffix(string(good), "\n"), "\n")
	cases := map[string][]byte{
		"empty":               nil,
		"no trailing newline": good[:len(good)-1],
		"truncated half":      good[:len(good)/2],
		"missing header":      []byte(strings.Join(lines[1:], "")),
		"missing checksum":    []byte(strings.Join(lines[:len(lines)-1], "")),
		"garbage appended":    append(append([]byte{}, good...), "entry ffffffffffffffff AAAA\n"...),
		"alien line": []byte(strings.Replace(string(good),
			"counter requests", "blorp requests", 1)),
	}
	// A single flipped bit in the middle of the file must break the
	// checksum.
	flipped := append([]byte{}, good...)
	flipped[len(flipped)/2] ^= 0x40
	cases["bit flip"] = flipped

	for name, data := range cases {
		if _, err := ParseSnapshot(data); err == nil {
			t.Errorf("%s: accepted corrupt snapshot", name)
		}
	}
}

// TestSnapshotRejectsForgedChecksum pins that interior damage with a
// recomputed-looking trailer still fails: the checksum must match the
// actual content, not merely parse.
func TestSnapshotRejectsForgedChecksum(t *testing.T) {
	s := warmServer(t)
	good := string(s.Snapshot().Render())
	// Double one counter but keep the old checksum line.
	bad := strings.Replace(good, "counter requests", "counter errors", 1)
	if bad == good {
		t.Fatalf("test setup: replacement was a no-op")
	}
	if _, err := ParseSnapshot([]byte(bad)); err == nil {
		t.Fatalf("accepted snapshot whose checksum does not cover its content")
	}
}

// TestLoadSnapshotMissingFileIsColdStart pins that a daemon with no
// snapshot yet boots cold without error.
func TestLoadSnapshotMissingFileIsColdStart(t *testing.T) {
	s := New(Config{Now: fakeClock()})
	n, err := s.LoadSnapshot(filepath.Join(t.TempDir(), "never-written.snap"))
	if err != nil || n != 0 {
		t.Fatalf("missing snapshot: n=%d err=%v, want 0/nil", n, err)
	}
	if st := statsSnapshot(t, s); st.WarmStart {
		t.Fatalf("cold start reported warm_start=true")
	}
}

// TestLoadSnapshotLiveEntryWins pins the warm-start merge rule: a
// value already in the live cache is never overwritten by the
// snapshot's (snapshots are strictly older than live state).
func TestLoadSnapshotLiveEntryWins(t *testing.T) {
	s := warmServer(t)
	sn := s.Snapshot()
	for fp := range sn.Entries {
		sn.Entries[fp] = []byte(`{"stale": true}` + "\n")
	}
	path := filepath.Join(t.TempDir(), "stale.snap")
	if err := writeRendered(path, sn); err != nil {
		t.Fatal(err)
	}
	live := post(t, s, "/v1/run", `{"machine": "sx4-32", "benchmarks": ["COPY"]}`).Body.String()
	if _, err := s.LoadSnapshot(path); err != nil {
		t.Fatalf("loading: %v", err)
	}
	after := post(t, s, "/v1/run", `{"machine": "sx4-32", "benchmarks": ["COPY"]}`).Body.String()
	if after != live {
		t.Fatalf("snapshot overwrote a live cache entry")
	}
}

func writeRendered(path string, sn *Snapshot) error {
	data := sn.Render()
	if _, err := ParseSnapshot(data); err != nil {
		return fmt.Errorf("rendered snapshot does not parse: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}
