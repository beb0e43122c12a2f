package serve

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"sx4bench/internal/benchjson"
)

// FuzzCacheSnapshotLoad fuzzes the warm-start snapshot parser — the
// second parser of untrusted bytes the daemon trusts its cache to
// (disks corrupt, crashes truncate). Properties pinned for every
// input: the parser never panics, parsing is deterministic, and an
// accepted snapshot re-renders to a canonical form that parses back to
// the same state (render∘parse is idempotent). Rejection is total: a
// parse error never yields a partial snapshot.
func FuzzCacheSnapshotLoad(f *testing.F) {
	valid := (&Snapshot{
		Counters: StatCounters{nRequests: 7, nRunQueries: 3, nCacheHits: 2},
		Memo:     []MemoStat{{Target: "sx4-32", Hits: 41, Misses: 5}},
		Entries:  map[uint64][]byte{0xdeadbeefcafef00d: []byte("{\"ok\":true}\n")},
	}).Render()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(snapshotHeader + "\n"))
	f.Add([]byte("sx4d-snapshot v2\nchecksum 0000000000000000\n"))
	f.Add([]byte("counter requests 1\n" + snapshotHeader + "\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		s1, err1 := ParseSnapshot(data)
		s2, err2 := ParseSnapshot(data)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("parse is nondeterministic: %v vs %v", err1, err2)
		}
		if err1 != nil {
			if s1 != nil {
				t.Fatalf("rejected input returned a partial snapshot %+v", s1)
			}
			return
		}
		if !reflect.DeepEqual(s1, s2) {
			t.Fatalf("parse is nondeterministic:\n%+v\nvs\n%+v", s1, s2)
		}
		canon := s1.Render()
		back, err := ParseSnapshot(canon)
		if err != nil {
			t.Fatalf("canonical render rejected: %v\n%s", err, canon)
		}
		if again := back.Render(); !bytes.Equal(canon, again) {
			t.Fatalf("render is not idempotent:\n%s\nvs\n%s", canon, again)
		}
	})
}

// serveRequestSeeds are FuzzServeRequest's seeds, each marked with
// whether it has the plain shape decodePlainRun reads (the rest fall
// back to encoding/json); TestRunRequestFastPathMatchesStrict runs them
// all as rows.
var serveRequestSeeds = []struct {
	body  string
	plain bool
}{
	{`{"machine":"sx4-32"}`, true},
	{`{"machine":" SX4-1 ","benchmarks":["COPY","CCM2"],"cpus":4,"workers":2}`, true},
	{`{"machine":"ymp","benchmarks":["all"],"fault_seed":7,"deadline_seconds":900.5,"max_attempts":6}`, false},
	{`{"machine":"ymp","benchmarks":["COPY"],"fault_seed":1,"deadline_seconds":-0}`, true},
	{`{"machine":"c90","benchmarks":[]}`, true},
	{`{"machine":"ymp","bogus":1}`, false},
	{`{"machine":"ymp"} {"machine":"c90"}`, false},
	{`{"machine":"sx4-32"}]`, false},
	{`{"machine":"ymp","deadline_seconds":-1}`, true},
	{`{"machine":"ymp","benchmarks":["FROBNICATE"]}`, true},
	{`{"machine":"éK"}`, false},
	{`[{"machine":"ymp"}]`, false},
	{`nullnull`, false},
	{`{`, false},
	{``, false},
}

// FuzzServeRequest fuzzes the request decoder — the daemon's only
// parser of untrusted bytes. Properties pinned for every input: the
// decoder never panics, decoding is deterministic, an accepted input is
// one valid JSON value with nothing after it, accepted requests
// canonicalize idempotently to an explicit benchmark list with the
// workers knob erased, the canonical fingerprint ignores the worker
// count and the sign of a zero deadline, and a canonical request
// survives a JSON re-encode round trip.
func FuzzServeRequest(f *testing.F) {
	for _, s := range serveRequestSeeds {
		f.Add([]byte(s.body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r1, err1 := DecodeRunRequest(data)
		r2, err2 := DecodeRunRequest(data)
		if (err1 == nil) != (err2 == nil) || !reflect.DeepEqual(r1, r2) {
			t.Fatalf("decode is nondeterministic: (%+v, %v) vs (%+v, %v)", r1, err1, r2, err2)
		}
		if err1 != nil {
			if !reflect.DeepEqual(r1, RunRequest{}) {
				t.Fatalf("rejected input returned a partial request %+v", r1)
			}
			return
		}
		if !json.Valid(data) {
			t.Fatalf("accepted input is not one valid JSON value: %q", data)
		}
		c := r1.Canonical()
		if c.Workers != 0 {
			t.Fatalf("canonical form kept workers=%d", c.Workers)
		}
		if len(c.Benchmarks) == 0 {
			t.Fatal("canonical form must list benchmarks explicitly")
		}
		if cc := c.Canonical(); !reflect.DeepEqual(cc, c) {
			t.Fatalf("canonicalization is not idempotent:\n%+v\n%+v", c, cc)
		}
		const probeFP = 0x5158344d4f44454c
		fp := c.Fingerprint(probeFP)
		reworked := r1
		reworked.Workers = (r1.Workers + 1) % maxWorkers
		if got := reworked.Canonical().Fingerprint(probeFP); got != fp {
			t.Fatalf("fingerprint depends on workers: %x vs %x", got, fp)
		}
		if r1.DeadlineSeconds == 0 {
			// ncar reads a −0 deadline as it reads 0: no deadline.
			negated := r1
			negated.DeadlineSeconds = -r1.DeadlineSeconds
			if got := negated.Canonical().Fingerprint(probeFP); got != fp {
				t.Fatalf("fingerprint depends on the sign of a zero deadline: %x vs %x", got, fp)
			}
		}
		if r1.FaultSeed == 0 {
			// A fault-free run never reads its deadline or attempt cap.
			knobs := r1
			knobs.DeadlineSeconds, knobs.MaxAttempts = r1.DeadlineSeconds+1, (r1.MaxAttempts+1)%maxAttemptCap
			if got := knobs.Canonical().Fingerprint(probeFP); got != fp {
				t.Fatalf("fault-free fingerprint depends on the resilience knobs: %x vs %x", got, fp)
			}
		}
		// A canonical request is valid JSON-wire content in its own
		// right: re-encoding and re-decoding must accept it unchanged.
		wire, err := json.Marshal(c)
		if err != nil {
			t.Fatalf("canonical request does not marshal: %v", err)
		}
		back, err := DecodeRunRequest(wire)
		if err != nil {
			t.Fatalf("canonical request rejected on re-decode: %v\n%s", err, wire)
		}
		if !reflect.DeepEqual(back.Canonical(), c) {
			t.Fatalf("re-decoded canonical diverged:\n%+v\n%+v", back.Canonical(), c)
		}
	})
}

// FuzzRunResponseRender fuzzes the append encoder against json.Marshal:
// for every response the inputs build (arbitrary strings and float
// bits, nil or empty results and metrics, the per-op counters set or
// not), the encoder writes json.Marshal's bytes and a newline, or both
// fail. Its seeds are the committed corpus.
func FuzzRunResponseRender(f *testing.F) {
	f.Fuzz(func(t *testing.T, machine string, cpus int, seed int64, name string, iters int64, ns float64, key string, v float64, perOp int64, shape uint8) {
		// shape bit 0: nil results, or empty ones with bit 1; else bit 1
		// sets BytesPerOp, bit 2 AllocsPerOp, bits 3–4 pick nil, empty,
		// one-key or three-key metrics, and bit 5 repeats the result.
		resp := RunResponse{Machine: machine, CPUs: cpus, FaultSeed: seed}
		if shape&1 != 0 {
			if shape&2 != 0 {
				resp.Results = []benchjson.Result{}
			}
			checkRender(t, resp)
			return
		}
		r := benchjson.Result{Name: name, Iterations: iters, NsPerOp: ns}
		if shape&2 != 0 {
			r.BytesPerOp = &perOp
		}
		if shape&4 != 0 {
			r.AllocsPerOp = &iters
		}
		switch shape >> 3 & 3 {
		case 1:
			r.Metrics = map[string]float64{}
		case 2:
			r.Metrics = map[string]float64{key: v}
		case 3:
			r.Metrics = map[string]float64{key: v, name: ns, "attempts": float64(iters)}
		}
		resp.Results = []benchjson.Result{r, r}[:1+shape>>5&1]
		checkRender(t, resp)
	})
}
