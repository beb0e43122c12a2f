package serve

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"maps"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"

	"sx4bench/internal/core"
)

// The cache snapshot format, version 1: the daemon's survivable state
// as a line-oriented text file, in the benchjson spirit — human
// inspectable, strictly parsed, fuzzable. The layout is
//
//	sx4d-snapshot v1
//	counter <name> <uint64>          # lifetime stats counters
//	memo <target> <hits> <misses>    # per-target compiled-trace cache counters
//	entry <fp:16-hex> <base64-body>  # one response-cache entry
//	checksum <fnv64a:16-hex>         # over every preceding byte
//
// in exactly that section order, every section sorted (counters in
// counterNames order, memo by target name, entries by fingerprint), so
// the same daemon state always renders the same bytes — the chaos soak
// asserts snapshot determinism by comparing renders. The checksum line
// is last and mandatory; a loader rejects the whole file on any
// deviation — a half-written or bit-flipped snapshot must never seed a
// cache with corrupt bytes, because the daemon would then serve them
// byte-identically forever.
const snapshotHeader = "sx4d-snapshot v1"

// Snapshot is the parsed form of one cache snapshot: the lifetime
// counters, the per-target memo books, and the response-cache entries.
type Snapshot struct {
	Counters StatCounters
	Memo     []MemoStat
	Entries  map[uint64][]byte
}

// MemoStat is one target's compiled-trace cache counters at snapshot
// time. The compiled traces themselves are rebuilt on demand after a
// restart; only the books persist, so /v1/stats stays continuous
// across a daemon's lives.
type MemoStat struct {
	Target       string
	Hits, Misses uint64
}

// Snapshot captures the daemon's survivable state: safe to call while
// serving (the cache walk takes per-shard read locks; counters are
// atomics), so the periodic snapshot loop never blocks traffic.
func (s *Server) Snapshot() *Snapshot {
	sn := &Snapshot{
		Counters: s.stats.counters(),
		Entries:  make(map[uint64][]byte),
	}
	s.cache.Range(func(fp uint64, body []byte) bool {
		sn.Entries[fp] = body
		return true
	})
	s.mu.Lock()
	for name, tgt := range s.targets {
		ms := tgt.CacheStats()
		sn.Memo = append(sn.Memo, MemoStat{Target: name, Hits: ms.Hits, Misses: ms.Misses})
	}
	s.mu.Unlock()
	// Fold in the books inherited from earlier lives, so a chain of
	// restarts keeps one continuous ledger.
	sn.Memo = append(sn.Memo, s.restoredMemo...)
	sn.Memo = mergeMemo(sn.Memo)
	return sn
}

// mergeMemo sums duplicate targets and sorts by name — the canonical
// order Render depends on.
func mergeMemo(in []MemoStat) []MemoStat {
	byName := make(map[string]MemoStat, len(in))
	for _, m := range in {
		acc := byName[m.Target]
		acc.Target = m.Target
		acc.Hits += m.Hits
		acc.Misses += m.Misses
		byName[m.Target] = acc
	}
	out := make([]MemoStat, 0, len(byName))
	for _, m := range byName {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Target < out[j].Target })
	return out
}

// Render serializes the snapshot to its canonical byte form.
func (sn *Snapshot) Render() []byte {
	var b bytes.Buffer
	b.WriteString(snapshotHeader)
	b.WriteByte('\n')
	for i, name := range counterNames {
		fmt.Fprintf(&b, "counter %s %d\n", name, sn.Counters[i])
	}
	for _, m := range mergeMemo(sn.Memo) {
		fmt.Fprintf(&b, "memo %s %d %d\n", m.Target, m.Hits, m.Misses)
	}
	fps := make([]uint64, 0, len(sn.Entries))
	for fp := range sn.Entries {
		fps = append(fps, fp)
	}
	sort.Slice(fps, func(i, j int) bool { return fps[i] < fps[j] })
	for _, fp := range fps {
		fmt.Fprintf(&b, "entry %016x %s\n", fp,
			base64.StdEncoding.EncodeToString(sn.Entries[fp]))
	}
	h := fnv.New64a()
	h.Write(b.Bytes())
	fmt.Fprintf(&b, "checksum %016x\n", h.Sum64())
	return b.Bytes()
}

// ParseSnapshot parses and verifies one snapshot file. It is strict
// and all-or-nothing: any malformed line, out-of-order section,
// duplicate entry, truncation or checksum mismatch rejects the whole
// file — a daemon starts cold rather than trust a damaged snapshot.
func ParseSnapshot(data []byte) (*Snapshot, error) {
	fail := func(format string, args ...any) (*Snapshot, error) {
		return nil, fmt.Errorf("serve: snapshot: "+format, args...)
	}
	if len(data) == 0 || data[len(data)-1] != '\n' {
		return fail("truncated (no trailing newline)")
	}
	// The checksum line covers every byte before it.
	idx := bytes.LastIndexByte(data[:len(data)-1], '\n') + 1
	last := string(data[idx : len(data)-1])
	sum, ok := strings.CutPrefix(last, "checksum ")
	if !ok {
		return fail("missing checksum trailer")
	}
	want, err := strconv.ParseUint(sum, 16, 64)
	if err != nil || len(sum) != 16 {
		return fail("malformed checksum %q", sum)
	}
	h := fnv.New64a()
	h.Write(data[:idx])
	if got := h.Sum64(); got != want {
		return fail("checksum mismatch: file says %016x, content folds to %016x", want, got)
	}

	sn := &Snapshot{Entries: make(map[uint64][]byte)}
	sc := bufio.NewScanner(bytes.NewReader(data[:idx]))
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	if !sc.Scan() || sc.Text() != snapshotHeader {
		return fail("bad header (want %q)", snapshotHeader)
	}
	var seenCounter [numCounters]bool
	seenMemo := make(map[string]bool)
	// Sections must appear in order; section tracks the furthest seen.
	section := 0
	for sc.Scan() {
		fields := strings.Split(sc.Text(), " ")
		kind := fields[0]
		var minSection int
		switch kind {
		case "counter":
			minSection = 0
		case "memo":
			minSection = 1
		case "entry":
			minSection = 2
		default:
			return fail("unknown line kind %q", kind)
		}
		if minSection < section {
			return fail("%s line out of section order", kind)
		}
		section = minSection
		switch kind {
		case "counter":
			if len(fields) != 3 {
				return fail("malformed counter line %q", sc.Text())
			}
			i := slices.Index(counterNames[:], fields[1])
			if i < 0 {
				return fail("unknown counter %q", fields[1])
			}
			if seenCounter[i] {
				return fail("duplicate counter %q", fields[1])
			}
			seenCounter[i] = true
			v, err := strconv.ParseUint(fields[2], 10, 64)
			if err != nil {
				return fail("counter %s: %v", fields[1], err)
			}
			sn.Counters[i] = v
		case "memo":
			if len(fields) != 4 || fields[1] == "" {
				return fail("malformed memo line %q", sc.Text())
			}
			if seenMemo[fields[1]] {
				return fail("duplicate memo target %q", fields[1])
			}
			seenMemo[fields[1]] = true
			hits, err1 := strconv.ParseUint(fields[2], 10, 64)
			misses, err2 := strconv.ParseUint(fields[3], 10, 64)
			if err1 != nil || err2 != nil {
				return fail("memo %s: bad counters", fields[1])
			}
			sn.Memo = append(sn.Memo, MemoStat{Target: fields[1], Hits: hits, Misses: misses})
		case "entry":
			if len(fields) != 3 || len(fields[1]) != 16 {
				return fail("malformed entry line %q", truncateForError(sc.Text()))
			}
			fp, err := strconv.ParseUint(fields[1], 16, 64)
			if err != nil {
				return fail("entry fingerprint %q: %v", fields[1], err)
			}
			if _, dup := sn.Entries[fp]; dup {
				return fail("duplicate entry %016x", fp)
			}
			body, err := base64.StdEncoding.DecodeString(fields[2])
			if err != nil {
				return fail("entry %016x body: %v", fp, err)
			}
			sn.Entries[fp] = body
		}
	}
	if err := sc.Err(); err != nil {
		return fail("%v", err)
	}
	return sn, nil
}

func truncateForError(s string) string {
	if len(s) > 80 {
		return s[:80] + "..."
	}
	return s
}

// WriteSnapshot atomically writes the daemon's current state to path:
// readers (and the next boot) see either the previous complete
// snapshot or this one, never a torn file, even through a crash
// mid-write.
func (s *Server) WriteSnapshot(path string) error {
	return core.WriteFileAtomic(path, s.Snapshot().Render(), 0o644)
}

// LoadSnapshot warm-starts the server from a snapshot file written by
// an earlier life: response-cache entries are installed in fingerprint
// order until the cache budget is full (live entries win — callers
// load before serving, so there are none — and nothing is evicted to
// make room, so a smaller budget keeps the same subset on every boot),
// the lifetime counters resume, and the memo books carry forward. A
// missing file is a cold start, not an error; a damaged file is an
// error and the caller decides whether to serve cold or refuse to
// boot. Returns the number of cache entries restored: the ones held.
func (s *Server) LoadSnapshot(path string) (int, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("serve: snapshot: %w", err)
	}
	sn, err := ParseSnapshot(data)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, fp := range slices.Sorted(maps.Keys(sn.Entries)) {
		if s.cache.Store(fp, sn.Entries[fp]) {
			n++
		}
	}
	s.stats.restore(sn.Counters)
	s.mu.Lock()
	s.restoredMemo = sn.Memo
	s.warmStart = true
	s.restoredEntries = n
	s.mu.Unlock()
	return n, nil
}
