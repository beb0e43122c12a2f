package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"
	"time"
)

// The generator draws only from the tables below, so a request list is a
// function of (workload, seed, seconds, nproc) alone and never of the
// code under test. TestTablesMatchRegistry checks them against the
// machine registry and the suite.
var machines = []struct {
	name string
	cpus int
}{
	{"sparc20", 1}, {"rs6000", 1}, {"j90", 8}, {"ymp", 8}, {"c90", 16}, {"sx4-1", 1}, {"sx4-32", 32},
}

var members = []string{
	"PARANOIA", "ELEFUNT", "COPY", "IA", "XPOSE", "RFFT", "VFFT", "RADABS",
	"IO", "HIPPI", "NETWORK", "PRODLOAD", "CCM2", "MOM", "POP",
}

// Fault lines draw their seed from faultSeeds and their members from
// faultMembers (a bit mask over members): every such member completes
// under every such seed on every machine and cpus value, so a fault
// line never answers 422. PRODLOAD on sx4-32 exhausts its retries under
// most seeds, for example. TestFaultLinesAnswer checks every
// combination.
var (
	faultSeeds   = []int64{3, 4, 5, 7, 8}
	faultMembers = uint32(0b111_0111_1111) // PARANOIA..VFFT, IO, HIPPI, NETWORK
)

// Capacity fleets: the canonical fleet first, then two other registry
// fleets of different size and mix of machines.
var fleets = []string{"sx4-32x2,c90", "sx4-32,ymp,j90", "c90x2"}

// setupCapacitySeed is the fleet seed of the capacity set-up queries;
// generated seeds start above it, so set-up never pre-fills the
// scenario memo for the timed phases.
const setupCapacitySeed = 1

// Sizes of the request lists for --seconds 20 (refSeconds); other
// values scale them linearly. They are fixed numbers, not rates
// measured at run time, so both commits of a comparison send exactly
// the same requests and end with the same cache contents. Each latency
// phase has at least 1000 requests at --seconds 20, so at least ten
// samples lie beyond its p99.
const (
	refSeconds      = 20
	hotKeys         = 256   // run-hot canonical queries besides the canonical one
	hotOpenRate     = 4000  // run-hot open-loop arrivals per second
	hotOpen         = 40000 // run-hot open-loop requests
	hotClosed       = 60000 // run-hot closed-loop requests, and again serially
	sweepClosed     = 8000  // sweep-cold requests over nproc connections
	sweepSerial     = 2000  // sweep-cold requests over one connection
	sweepLines      = 25    // lines per sweep request
	sweepFaultShare = 0.25
	sweepDupShare   = 0.04 // lines the next connection repeats at the same position
	capClosed       = 4000 // capacity queries over nproc connections
	capSerial       = 1000 // capacity queries over one connection
	capScenarios    = 6    // scenarios of a fresh capacity query
	capExtend       = 2    // scenarios an extension adds
	capMaxScenarios = 12
	paperSamples    = 800 // fresh-process RunAll samples, half at each worker count
)

// query is one canonical /v1/run query as the generator means it.
type query struct {
	Machine string
	Members []string // nil: the whole suite
	CPUs    int
	Seed    int64
}

// key names the canonical query; every spelling of it must get the
// same response bytes. Keys are hashes, so that the request lists and
// the gate hold no pointers for the garbage collector to trace.
func (q query) key() uint64 {
	ms := q.Members
	if ms == nil {
		ms = members
	}
	return keyOf(fmt.Sprintf("run|%s|%s|%d|%d", q.Machine, strings.Join(ms, ","), q.CPUs, q.Seed))
}

func keyOf(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// canonicalKey is the golden-pinned query: the full suite on sx4-32.
var canonicalKey = query{Machine: "sx4-32"}.key()

// capQuery is one canonical /v1/capacity query.
type capQuery struct {
	Fleet     string
	Seed      int64
	Scenarios int
}

func (q capQuery) key() uint64 {
	return keyOf(fmt.Sprintf("cap|%s|%d|%d", q.Fleet, q.Seed, q.Scenarios))
}

// paperKey names the paper output: every sample and the traced replay
// must produce the same bytes.
var paperKey = keyOf("paper")

// request is one HTTP request of a plan. Keys holds the canonical key of
// each answer the response carries: one for /v1/run and /v1/capacity,
// one per line for /v1/sweep.
type request struct {
	Path string
	Body []byte
	Due  time.Duration // open loop only: offset from the phase start
	Keys []uint64
	Cap  *capQuery // the query behind Keys (capacity)
	Dup  []bool    // sweep: line i repeats another connection's line
}

// plan is everything one workload run sends, built before timing.
type plan struct {
	Workload string
	Seed     uint64
	Conns    int
	Setup    []request   // answered once after serve.New; timed as setup_s
	Open     []request   // run-hot open loop
	Closed   [][]request // one fixed list per connection
	Serial   []request   // one connection
	Paper    []int       // paper: worker count of each sample
}

// timed returns every timed request, list by list.
func (p *plan) timed() []request {
	out := append([]request(nil), p.Open...)
	for _, l := range p.Closed {
		out = append(out, l...)
	}
	return append(out, p.Serial...)
}

// rng is SplitMix64. Each list draws from its own stream, named by a
// label, so adding draws to one list never shifts another.
type rng struct{ s uint64 }

func newRNG(seed uint64, label string) *rng {
	s := seed
	for _, c := range []byte(label) {
		s = splitmix(s ^ uint64(c))
	}
	return &rng{s: s}
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// exp draws an exponential gap with the given mean (Poisson arrivals).
func (r *rng) exp(mean float64) float64 { return -mean * math.Log(1-r.float()) }

func cpusOptions(cpus int) []int {
	out := []int{0}
	for c := 1; c <= cpus; c *= 2 {
		out = append(out, c)
	}
	return out
}

// subset returns the members selected by mask, in suite order.
func subset(mask uint32) []string {
	var out []string
	for i, m := range members {
		if mask&(1<<i) != 0 {
			out = append(out, m)
		}
	}
	return out
}

// drawQuery draws a query with a member subset; with probability fault
// it carries a fault seed and draws only from faultMembers.
func drawQuery(r *rng, fault float64) query {
	m := machines[r.intn(len(machines))]
	opts := cpusOptions(m.cpus)
	q := query{Machine: m.name, CPUs: opts[r.intn(len(opts))]}
	pool := uint32(1<<len(members)) - 1
	if r.float() < fault {
		q.Seed = faultSeeds[r.intn(len(faultSeeds))]
		pool = faultMembers
	}
	var mask uint32
	for mask == 0 {
		mask = uint32(r.next()) & pool
	}
	q.Members = subset(mask)
	if len(q.Members) == len(members) {
		q.Members = nil
	}
	return q
}

// wireRun is the /v1/run body shape; the benchmark writes its own so
// that it sends exactly the spellings it means to.
type wireRun struct {
	Machine    string   `json:"machine"`
	Benchmarks []string `json:"benchmarks,omitempty"`
	CPUs       int      `json:"cpus,omitempty"`
	Workers    int      `json:"workers,omitempty"`
	FaultSeed  int64    `json:"fault_seed,omitempty"`
}

type wireCapacity struct {
	Fleet     string `json:"fleet"`
	Scenarios int    `json:"scenarios,omitempty"`
	Seed      int64  `json:"seed,omitempty"`
	Workers   int    `json:"workers,omitempty"`
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only the fixed wire structs above are marshalled
	}
	return b
}

// plainBody spells q canonically.
func plainBody(q query, workers int) []byte {
	return mustJSON(wireRun{Machine: q.Machine, Benchmarks: q.Members, CPUs: q.CPUs, Workers: workers, FaultSeed: q.Seed})
}

// respell writes q in one of the spellings the daemon must fold
// together: machine case and surrounding whitespace, "all" against an
// omitted or explicit full list, and any workers value up to nproc.
func respell(r *rng, q query, nproc int) []byte {
	name := q.Machine
	switch r.intn(4) {
	case 1:
		name = strings.ToUpper(name)
	case 2:
		name = " " + strings.ToUpper(name[:1]) + name[1:] + "\t"
	case 3:
		name = "  " + name
	}
	list := q.Members
	if list == nil {
		switch r.intn(3) {
		case 1:
			list = []string{"all"}
		case 2:
			list = members
		}
	}
	return mustJSON(wireRun{Machine: name, Benchmarks: list, CPUs: q.CPUs, Workers: r.intn(nproc + 1), FaultSeed: q.Seed})
}

func runRequest(keys []uint64, body []byte) request {
	return request{Path: "/v1/run", Body: body, Keys: keys}
}

// newPlan builds the request lists of one workload run. scale sizes
// the lists (the --seconds value; the traced probe uses a small one).
func newPlan(workload string, seed uint64, scale float64, nproc int) (*plan, error) {
	if nproc < 1 {
		return nil, fmt.Errorf("nproc %d", nproc)
	}
	p := &plan{Workload: workload, Seed: seed, Conns: nproc}
	n := func(size int) int { return max(1, int(math.Round(float64(size)*scale/refSeconds))) }
	switch workload {
	case "run-hot":
		genRunHot(p, n)
	case "sweep-cold":
		genSweepCold(p, n)
	case "capacity":
		genCapacity(p, n)
	case "paper":
		for i := 0; i < 2*((n(paperSamples)+1)/2); i++ {
			if i%2 == 0 {
				p.Paper = append(p.Paper, 1)
			} else {
				p.Paper = append(p.Paper, nproc)
			}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (known: %s)", workload, strings.Join(workloads, ", "))
	}
	return p, p.guard(nproc)
}

var workloads = []string{"run-hot", "sweep-cold", "capacity", "paper"}

// guard refuses any connection count or workers value above nproc: on
// a small host those measure oversubscription, not scaling.
func (p *plan) guard(nproc int) error {
	if p.Conns > nproc || len(p.Closed) > nproc {
		return fmt.Errorf("plan uses %d connections on %d CPUs", max(p.Conns, len(p.Closed)), nproc)
	}
	for _, w := range p.Paper {
		if w > nproc {
			return fmt.Errorf("paper sample uses %d workers on %d CPUs", w, nproc)
		}
	}
	for _, r := range append(p.timed(), p.Setup...) {
		var w struct {
			Workers int `json:"workers"`
		}
		for _, line := range strings.Split(strings.TrimSpace(string(r.Body)), "\n") {
			if err := json.Unmarshal([]byte(line), &w); err != nil {
				return fmt.Errorf("generated body %q: %v", line, err)
			}
			if w.Workers > nproc {
				return fmt.Errorf("request asks for %d workers on %d CPUs", w.Workers, nproc)
			}
		}
	}
	return nil
}

// genRunHot: Zipf-popular picks from a hot set, each sent in a random
// spelling; the set-up answers every hot key once, so every timed
// request is a response-cache hit.
func genRunHot(p *plan, n func(int) int) {
	r := newRNG(p.Seed, "run-hot/keys")
	hot := []query{{Machine: "sx4-32"}}
	seen := map[uint64]bool{canonicalKey: true}
	for len(hot) < hotKeys+1 {
		q := drawQuery(r, 0.15)
		if r.float() < 0.3 && q.Seed == 0 {
			q.Members = nil
		}
		if !seen[q.key()] {
			seen[q.key()] = true
			hot = append(hot, q)
		}
	}
	keys := make([][]uint64, len(hot)) // shared by every request for the key
	for i, q := range hot {
		keys[i] = []uint64{q.key()}
		p.Setup = append(p.Setup, runRequest(keys[i], plainBody(q, 0)))
	}
	cdf := zipfCDF(len(hot), 1.1)
	send := func(r *rng) request {
		i := sort.SearchFloat64s(cdf, r.float())
		return runRequest(keys[i], respell(r, hot[i], p.Conns))
	}

	ro := newRNG(p.Seed, "run-hot/open")
	var due float64
	for i := 0; i < n(hotOpen); i++ {
		due += ro.exp(1.0 / hotOpenRate)
		req := send(ro)
		req.Due = time.Duration(due * float64(time.Second))
		p.Open = append(p.Open, req)
	}
	rc := newRNG(p.Seed, "run-hot/closed")
	p.Closed = make([][]request, p.Conns)
	total := n(hotClosed)
	for i := 0; i < total; i++ {
		p.Closed[i%p.Conns] = append(p.Closed[i%p.Conns], send(rc))
	}
	rs := newRNG(p.Seed, "run-hot/serial")
	for i := 0; i < total; i++ {
		p.Serial = append(p.Serial, send(rs))
	}
}

func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	var sum float64
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	cdf[n-1] = 1
	return cdf
}

// genSweepCold: sweep bodies of pairwise-distinct lines that no earlier
// request asked, except the designed duplicates, which the next
// connection sends at the same position so single-flight has work.
func genSweepCold(p *plan, n func(int) int) {
	seen := map[uint64]bool{}
	for _, m := range machines {
		q := query{Machine: m.name}
		seen[q.key()] = true
		p.Setup = append(p.Setup, runRequest([]uint64{q.key()}, plainBody(q, 1)))
	}
	fresh := func(r *rng) query {
		for {
			q := drawQuery(r, sweepFaultShare)
			if !seen[q.key()] {
				seen[q.key()] = true
				return q
			}
		}
	}
	sweep := func(qs []query, dup []bool) request {
		req := request{Path: "/v1/sweep", Dup: dup}
		var b []byte
		for _, q := range qs {
			req.Keys = append(req.Keys, q.key())
			b = append(append(b, plainBody(q, 1)...), '\n')
		}
		req.Body = b
		return req
	}
	rc := newRNG(p.Seed, "sweep-cold/closed")
	p.Closed = make([][]request, p.Conns)
	for i := 0; i < (n(sweepClosed)+p.Conns-1)/p.Conns; i++ {
		var prev []query
		for c := 0; c < p.Conns; c++ {
			qs := make([]query, sweepLines)
			dup := make([]bool, sweepLines)
			for j := range qs {
				if c > 0 && rc.float() < sweepDupShare {
					qs[j], dup[j] = prev[j], true
				} else {
					qs[j] = fresh(rc)
				}
			}
			p.Closed[c] = append(p.Closed[c], sweep(qs, dup))
			prev = qs
		}
	}
	rs := newRNG(p.Seed, "sweep-cold/serial")
	for i := 0; i < n(sweepSerial); i++ {
		qs := make([]query, sweepLines)
		for j := range qs {
			qs[j] = fresh(rs)
		}
		p.Serial = append(p.Serial, sweep(qs, make([]bool, sweepLines)))
	}
}

// genCapacity: about 70% fresh seeds, 20% extensions of an earlier seed
// to more scenarios (the scenario memo serves the prefix) and 10% exact
// repeats (response-cache hits that still parse the fleet).
func genCapacity(p *plan, n func(int) int) {
	for _, f := range fleets {
		p.Setup = append(p.Setup, capRequest(capQuery{Fleet: f, Seed: setupCapacitySeed, Scenarios: 1}))
	}
	used := map[int64]bool{setupCapacitySeed: true}
	list := func(label string, count int) []request {
		r := newRNG(p.Seed, label)
		var sent, groups []capQuery // groups: the largest query sent per (fleet, seed)
		out := make([]request, 0, count)
		for len(out) < count {
			x := r.float()
			var q capQuery
			switch {
			case x < 0.7 || len(sent) == 0:
				seed := int64(r.next()>>33) + setupCapacitySeed + 1
				if used[seed] {
					continue
				}
				used[seed] = true
				q = capQuery{Fleet: fleets[r.intn(len(fleets))], Seed: seed, Scenarios: capScenarios}
				groups = append(groups, q)
			case x < 0.9:
				g := &groups[r.intn(len(groups))]
				if g.Scenarios+capExtend > capMaxScenarios {
					continue
				}
				g.Scenarios += capExtend
				q = *g
			default:
				q = sent[r.intn(len(sent))]
			}
			sent = append(sent, q)
			out = append(out, capRequest(q))
		}
		return out
	}
	all := list("capacity/closed", n(capClosed))
	p.Closed = make([][]request, p.Conns)
	for i, req := range all {
		p.Closed[i%p.Conns] = append(p.Closed[i%p.Conns], req)
	}
	p.Serial = list("capacity/serial", n(capSerial))
}

func capRequest(q capQuery) request {
	body := mustJSON(wireCapacity{Fleet: q.Fleet, Scenarios: q.Scenarios, Seed: q.Seed, Workers: 1})
	return request{Path: "/v1/capacity", Body: body, Keys: []uint64{q.key()}, Cap: &q}
}
