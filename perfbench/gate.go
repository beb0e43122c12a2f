package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"sx4bench/internal/check"
	"sx4bench/internal/fleet"
	"sx4bench/internal/serve"
)

// gate is the correctness gate of one run. Every answer for one
// canonical key must carry the bytes of the first answer for it,
// whether it was a hit, a miss, coalesced or rendered by the traced
// replay; any transport error, non-200 status or error line fails the
// request that carried it. The gate keeps a digest per key, and whole
// bodies only for the canonical query and capacity answers, which it
// decodes later.
type gate struct {
	mu     sync.Mutex
	first  map[uint64]uint64   // key -> digest of the first body
	bodies map[uint64][]byte   // canonical and capacity bodies
	caps   map[uint64]capQuery // capacity keys answered
	failed int
	msgs   []string
}

func newGate() *gate {
	return &gate{first: map[uint64]uint64{}, bodies: map[uint64][]byte{}, caps: map[uint64]capQuery{}}
}

func (g *gate) fail(format string, args ...any) {
	g.failed++
	if len(g.msgs) < 5 {
		g.msgs = append(g.msgs, fmt.Sprintf(format, args...))
	}
}

func (g *gate) firstFailure() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.msgs) == 0 {
		return ""
	}
	return g.msgs[0]
}

// check records one answer and reports whether it passed.
func (g *gate) check(req *request, a answer) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	switch {
	case a.err != nil:
		g.fail("%s: %v", req.Path, a.err)
		return false
	case a.status != 200:
		g.fail("%s: status %d: %s", req.Path, a.status, bytes.TrimSpace(a.body))
		return false
	}
	if req.Cap != nil {
		g.caps[req.Keys[0]] = *req.Cap
	}
	lines := [][]byte{a.body}
	if req.Path == "/v1/sweep" {
		lines = bytes.SplitAfter(a.body, []byte("\n"))
		if n := len(lines); n > 0 && len(lines[n-1]) == 0 {
			lines = lines[:n-1]
		}
	}
	if len(lines) != len(req.Keys) {
		g.fail("%s: %d answers for %d queries", req.Path, len(lines), len(req.Keys))
		return false
	}
	ok := true
	for i, line := range lines {
		if bytes.HasPrefix(line, []byte(`{"error"`)) {
			g.fail("%s: line %d: %s", req.Path, i, bytes.TrimSpace(line))
			ok = false
			continue
		}
		ok = g.same(req.Keys[i], line, req.Keys[i] == canonicalKey || req.Cap != nil) && ok
	}
	return ok
}

// same compares body against the first body seen for key; the caller
// holds g.mu.
func (g *gate) same(key uint64, body []byte, keep bool) bool {
	want, seen := g.first[key]
	if !seen {
		g.first[key] = digest(body)
		if keep {
			g.bodies[key] = bytes.Clone(body)
		}
		return true
	}
	if want != digest(body) {
		g.fail("%s differs from the first answer for the same query", bytes.TrimSpace(body))
		return false
	}
	return true
}

// digest is a short fingerprint of a body, for comparing bodies across
// processes.
func digest(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// matchDigests checks bodies another process rendered against the
// first answers this run saw.
func (g *gate) matchDigests(who string, ds map[uint64]uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for k, d := range ds {
		if want, ok := g.first[k]; ok && want != d {
			g.fail("%s: query %016x renders different bytes than the first answer", who, k)
		}
	}
}

// checkGolden compares the canonical /v1/run body with the serve golden.
func (g *gate) checkGolden(root string) {
	want, err := os.ReadFile(check.GoldenPath(filepath.Join(root, check.DefaultDir), "serve"))
	g.mu.Lock()
	defer g.mu.Unlock()
	got, ok := g.bodies[canonicalKey]
	switch {
	case err != nil:
		g.fail("serve golden: %v", err)
	case !ok:
		g.fail("serve golden: the canonical query was never answered")
	case !bytes.Equal(got, want):
		g.fail("serve golden: the canonical /v1/run body differs from %s", check.DefaultDir)
	}
}

// checkCapacity decodes every capacity answer, requires zero lost jobs,
// and recomputes its checksum with fleet.Engine.MonteCarlo(cfg, 1) on a
// fresh engine per (fleet, seed), largest query first so smaller ones
// are memo hits. The groups are spread over conns goroutines.
func (g *gate) checkCapacity(conns int) {
	g.mu.Lock()
	type item struct {
		q    capQuery
		resp serve.CapacityResponse
	}
	groups := map[string][]item{}
	for k, q := range g.caps {
		it := item{q: q}
		if err := json.Unmarshal(g.bodies[k], &it.resp); err != nil {
			g.fail("%+v: %v", q, err)
			continue
		}
		for _, m := range it.resp.Mixes {
			if m.Lost != 0 {
				g.fail("%+v: mix %s lost %d jobs", q, m.Mix, m.Lost)
			}
		}
		gk := fmt.Sprintf("%s|%d", it.q.Fleet, it.q.Seed)
		groups[gk] = append(groups[gk], it)
	}
	g.mu.Unlock()
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	next := make(chan string)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				items := groups[k]
				sort.Slice(items, func(i, j int) bool { return items[i].q.Scenarios > items[j].q.Scenarios })
				var eng fleet.Engine
				for _, it := range items {
					sum, err := capacityChecksum(&eng, it.q)
					g.mu.Lock()
					switch {
					case err != nil:
						g.fail("%+v: %v", it.q, err)
					case sum != it.resp.Checksum:
						g.fail("%+v: checksum %s, recomputed %s", it.q, it.resp.Checksum, sum)
					}
					g.mu.Unlock()
				}
			}
		}()
	}
	for _, k := range keys {
		next <- k
	}
	close(next)
	wg.Wait()
}

func capacityConfig(q capQuery) (fleet.Config, error) {
	nodes, err := fleet.ParseSpec(q.Fleet)
	if err != nil {
		return fleet.Config{}, err
	}
	return fleet.Config{Nodes: nodes, Mixes: fleet.CanonicalMixes(), Scenarios: q.Scenarios, Seed: q.Seed}, nil
}

func capacityChecksum(eng *fleet.Engine, q capQuery) (string, error) {
	cfg, err := capacityConfig(q)
	if err != nil {
		return "", err
	}
	rep, err := eng.MonteCarlo(cfg, 1)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%016x", rep.Checksum), nil
}
