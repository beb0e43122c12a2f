package fleet

import (
	"math"
	"slices"

	"sx4bench/internal/fault"
	"sx4bench/internal/superux"
)

// Node is one member of a running cluster: a spec sheet plus the live
// SUPER-UX instance scheduled on it.
type Node struct {
	Spec NodeSpec
	Sys  *superux.System

	plan    fault.Plan             // the node's fault schedule, redrawn on reset
	migrate func(superux.Job) bool // the node's migrator, bound to its index once
}

// Cluster stands N nodes behind one NQS-style queue: arrivals are
// routed to the least-loaded node that can hold them, faults delivered
// per node from plans derived off one fleet seed, and jobs a CPU
// failure leaves homeless on one node migrate — checkpoint state and
// all — to a surviving node instead of failing, as long as anywhere in
// the fleet can hold them.
type Cluster struct {
	Nodes []*Node

	jobs    []jobRecord
	pending []pendingMigration
	nextAt  []float64 // each node's next event time, +Inf for none
	lat     []float64 // Result.Latencies' backing storage
}

// jobRecord is the cluster-level life of one arrival.
type jobRecord struct {
	submitAt   float64
	node       int // current node index; -1 once failed fleet-wide
	localID    int
	migrations int
}

// pendingMigration is a job accepted off a failing node, awaiting
// placement once every node has reached the migration's simulated
// time.
type pendingMigration struct {
	record int
	job    superux.Job
}

// NewCluster stands up one node per spec, each with its fault plan
// derived from the fleet seed (node i runs fault.NewPlan(
// fault.NodeSeed(seed, i), horizon, eventsPerNode)) and its migrator
// wired into the cluster.
// eventsPerNode == 0 builds a fault-free fleet.
func NewCluster(specs []NodeSpec, fleetSeed int64, horizon float64, eventsPerNode int) *Cluster {
	c := &Cluster{}
	c.reset(specs, fleetSeed, horizon, eventsPerNode)
	return c
}

// reset makes c the cluster NewCluster(specs, ...) builds, reusing its
// nodes, their SUPER-UX systems and fault plans, and its buffers; the
// Latencies of a Result it returned before are overwritten.
func (c *Cluster) reset(specs []NodeSpec, fleetSeed int64, horizon float64, eventsPerNode int) {
	nodes := c.Nodes[:cap(c.Nodes)]
	for i, ns := range specs {
		if i == len(nodes) {
			nodes = append(nodes, nil)
		}
		n := nodes[i]
		if n == nil {
			n = &Node{Sys: &superux.System{}}
			from := i
			n.migrate = func(j superux.Job) bool { return c.acceptMigration(from, j) }
			nodes[i] = n
		}
		n.Spec = ns
		resetNodeSystem(n.Sys, ns)
		if eventsPerNode > 0 {
			n.plan.Fill(fault.NodeSeed(fleetSeed, i), horizon, eventsPerNode)
			n.Sys.SetInjector(&n.plan)
		}
		n.Sys.SetMigrator(n.migrate)
	}
	c.Nodes = nodes[:len(specs)]
	c.jobs, c.pending, c.lat = c.jobs[:0], c.pending[:0], c.lat[:0]
}

// acceptMigration is node from's migrator: accept the homeless job iff
// some other live node can hold it, and buffer the move — placement
// happens only after every node has advanced to the current time, so
// migrations never outrun the completions-win-ties rule. Migrations
// are rare (a handful per thousand jobs), so the job's record is found
// by a scan rather than an index kept up on every dispatch.
func (c *Cluster) acceptMigration(from int, j superux.Job) bool {
	if c.bestNode(j.CPUs, j.MemGB, func(*Node) float64 { return j.Seconds }, from) < 0 {
		return false
	}
	for rec := range c.jobs {
		if c.jobs[rec].node == from && c.jobs[rec].localID == j.ID {
			c.pending = append(c.pending, pendingMigration{record: rec, job: j})
			return true
		}
	}
	return false // not a cluster-routed job (defensive; never expected)
}

// bestNode picks the home for a job of the given shape: among live
// nodes (excluding skip) whose blocks can hold it, the one with the
// smallest estimated completion — per-CPU-normalized backlog plus the
// job's duration at that node's speed (secondsFn, so a fast idle node
// beats a slow idle one) — with ties to the lowest fleet index.
// Returns -1 when nowhere fits.
func (c *Cluster) bestNode(cpus int, memGB float64, secondsFn func(*Node) float64, skip int) int {
	best, bestScore := -1, math.Inf(1)
	for i, n := range c.Nodes {
		// CanHold needs a surviving block, so a node whose blocks all
		// failed never passes.
		if i == skip || !n.Sys.CanHold(cpus, memGB) {
			continue
		}
		score := n.Sys.Backlog()/float64(n.Spec.CPUs) + secondsFn(n)
		if score < bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

// secondsOn converts an arrival's demand into a duration on a node:
// work over the node's aggregate rate for the job's processor
// allocation.
func secondsOn(a *Arrival, n *Node) float64 {
	cpus := a.CPUs
	if cpus < 1 {
		cpus = 1
	}
	return a.WorkMFLOP / (n.Spec.PerCPUMFLOPS * float64(cpus))
}

// Result is one cluster run's outcome.
type Result struct {
	// Jobs counts arrivals; Finished those that completed.
	Jobs     int
	Finished int
	// Makespan is the latest completion time across the fleet.
	Makespan float64
	// Latencies holds submission-to-completion seconds for finished
	// jobs, in arrival order (migrated and restarted jobs measure from
	// their original arrival).
	Latencies []float64
	// Recovered counts finished jobs that survived at least one
	// checkpoint restart or cross-node migration; Failed those no
	// surviving capacity could hold; Lost is the invariant counter —
	// jobs in no terminal state after the fleet idles — pinned to zero
	// by the cluster tests.
	Recovered, Failed, Lost int
}

// Run drives the full fleet over an arrival schedule (ascending At)
// until every node is idle and every fault delivered, then returns the
// cluster accounting. Each step finds the globally earliest pending
// event — arrival, completion or fault — and advances the nodes that
// have an event then, in fleet order. Before any cross-node action at
// that time (placing buffered migrations, dispatching the arrivals
// due) every node's clock is brought to it, and at the end every clock
// reads the last event's time. Nodes are always visited in fleet
// order, so the run is a pure function of (specs, seed, arrivals).
func (c *Cluster) Run(arrivals []Arrival) Result {
	c.jobs = slices.Grow(c.jobs, len(arrivals))
	c.nextAt = c.nextAt[:0]
	for _, n := range c.Nodes {
		c.nextAt = append(c.nextAt, nextEventAt(n.Sys))
	}
	next, last := 0, math.Inf(-1)
	for {
		t := math.Inf(1)
		if next < len(arrivals) {
			t = arrivals[next].At
		}
		for _, at := range c.nextAt {
			if at < t {
				t = at
			}
		}
		if math.IsInf(t, 1) {
			break
		}
		last = t
		for i, n := range c.Nodes {
			if c.nextAt[i] <= t {
				n.Sys.AdvanceUntil(t)
				c.nextAt[i] = nextEventAt(n.Sys)
			}
		}
		if len(c.pending) == 0 && (next == len(arrivals) || arrivals[next].At > t) {
			continue
		}
		c.syncClocks(t)
		c.placeMigrations()
		for next < len(arrivals) && arrivals[next].At <= t {
			c.dispatch(&arrivals[next])
			next++
		}
	}
	c.syncClocks(last)
	return c.summarize()
}

// nextEventAt is sys.NextEventAt with +Inf for no pending event.
func nextEventAt(sys *superux.System) float64 {
	if at, ok := sys.NextEventAt(); ok {
		return at
	}
	return math.Inf(1)
}

// syncClocks brings every node's clock up to t. It runs once the due
// nodes have advanced, so no node has an event at or before t, and
// setting the clock is all AdvanceUntil(t) would do.
func (c *Cluster) syncClocks(t float64) {
	for _, n := range c.Nodes {
		if n.Sys.Clock < t {
			n.Sys.Clock = t
		}
	}
}

// submit places a job on node i and refreshes the node's next event.
func (c *Cluster) submit(i int, j superux.Job) int {
	id := c.Nodes[i].Sys.Submit(j)
	c.nextAt[i] = nextEventAt(c.Nodes[i].Sys)
	return id
}

// dispatch routes one arrival onto the fleet, or records it failed
// when no live node can hold its shape.
func (c *Cluster) dispatch(a *Arrival) {
	rec := len(c.jobs)
	c.jobs = append(c.jobs, jobRecord{submitAt: a.At, node: -1})
	node := c.bestNode(a.CPUs, a.MemGB, func(n *Node) float64 { return secondsOn(a, n) }, -1)
	if node < 0 {
		return
	}
	n := c.Nodes[node]
	block, ok := n.Sys.Home(a.CPUs, a.MemGB)
	if !ok {
		return
	}
	id := c.submit(node, superux.Job{
		Name:    a.Name,
		Block:   block,
		CPUs:    a.CPUs,
		MemGB:   a.MemGB,
		Seconds: secondsOn(a, n),
	})
	c.jobs[rec].node = node
	c.jobs[rec].localID = id
}

// placeMigrations resubmits every buffered migration at the current
// time: the job's checkpointed remaining work (restart overhead
// included) lands on the best surviving node, or the record fails
// fleet-wide if the last candidate died since acceptance. Placement
// order is acceptance order — itself deterministic because nodes
// advance in fleet order.
func (c *Cluster) placeMigrations() {
	for len(c.pending) > 0 {
		batch := c.pending
		c.pending = nil
		for _, p := range batch {
			rec := &c.jobs[p.record]
			node := c.bestNode(p.job.CPUs, p.job.MemGB, func(*Node) float64 { return p.job.Seconds }, rec.node)
			if node < 0 {
				rec.node = -1
				continue
			}
			n := c.Nodes[node]
			block, ok := n.Sys.Home(p.job.CPUs, p.job.MemGB)
			if !ok {
				rec.node = -1
				continue
			}
			id := c.submit(node, superux.Job{
				Name:     p.job.Name,
				Block:    block,
				CPUs:     p.job.CPUs,
				MemGB:    p.job.MemGB,
				Seconds:  p.job.Seconds,
				Priority: p.job.Priority,
			})
			rec.node = node
			rec.localID = id
			rec.migrations++
		}
	}
}

// summarize folds the per-job records into the cluster accounting,
// walking records in arrival order (never a map).
func (c *Cluster) summarize() Result {
	res := Result{Jobs: len(c.jobs)}
	start := len(c.lat)
	c.lat = slices.Grow(c.lat, len(c.jobs))
	for i := range c.jobs {
		rec := &c.jobs[i]
		if rec.node < 0 {
			res.Failed++
			continue
		}
		j, _ := c.Nodes[rec.node].Sys.Job(rec.localID)
		switch j.State {
		case superux.Done:
			res.Finished++
			c.lat = append(c.lat, j.FinishAt-rec.submitAt)
			if j.FinishAt > res.Makespan {
				res.Makespan = j.FinishAt
			}
			if j.Restarts > 0 || rec.migrations > 0 {
				res.Recovered++
			}
		case superux.Failed:
			res.Failed++
		default:
			res.Lost++
		}
	}
	if len(c.lat) > start {
		res.Latencies = slices.Clip(c.lat[start:])
	}
	return res
}
