// Package superux models the SUPER-UX operating-system features the
// benchmark exercises: Resource Blocking (logical scheduling groups
// with processor and memory limits mapped onto the SX-4 CPUs), the NQS
// batch subsystem (queues, job submission, qcat), and
// checkpoint/restart of batch work — all over a deterministic
// virtual-time event simulation, which is what the PRODLOAD benchmark
// runs on.
package superux

import (
	"bytes"
	"cmp"
	"encoding/gob"
	"fmt"
	"slices"
	"sort"
	"strings"

	"sx4bench/internal/fault"
)

// Policy selects a resource block's scheduling style.
type Policy int

const (
	// FIFO runs jobs strictly in submission order ("static parallel
	// processing scheduling using a FIFO scheme").
	FIFO Policy = iota
	// Interactive admits jobs in any order that fits (favoring small
	// jobs), the behaviour of a block reserved for interactive work.
	Interactive
)

func (p Policy) String() string {
	if p == FIFO {
		return "FIFO"
	}
	return "interactive"
}

// ResourceBlock is a logical scheduling group mapped onto part of the
// node.
type ResourceBlock struct {
	Name    string
	MinCPUs int
	MaxCPUs int
	MemGB   float64
	Policy  Policy

	// Failed marks a block whose backing processors were configured out
	// by a fault; a failed block never runs another job.
	Failed bool

	usedCPUs int
	usedMem  float64
}

// JobState tracks a job through the queue.
type JobState int

const (
	Queued JobState = iota
	Running
	Done
	// Failed marks a job that could not be recovered after a fault: no
	// surviving resource block can hold it. Failed is terminal and
	// reported — a job is never silently dropped.
	Failed
	// Migrated marks a job a cluster-level migrator accepted off this
	// node after a fault left it homeless here; it is terminal on this
	// node, and the fleet layer that installed the migrator (see
	// SetMigrator) owns the job's continued accounting.
	Migrated
)

func (s JobState) String() string {
	switch s {
	case Queued:
		return "queued"
	case Running:
		return "running"
	case Done:
		return "done"
	case Failed:
		return "failed"
	case Migrated:
		return "migrated"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Job is one NQS batch request.
type Job struct {
	ID       int
	Name     string
	Block    string // resource block name
	CPUs     int
	MemGB    float64
	Seconds  float64 // execution time once started
	Priority int

	State    JobState
	SubmitAt float64
	StartAt  float64
	FinishAt float64

	// Restarts counts checkpoint-driven recoveries: each fault that
	// interrupts the job checkpoints it and requeues the remaining work.
	Restarts int
}

// Complex is an NQS queue complex: a group of resource blocks sharing
// a global limit on concurrently running jobs (Section 2.6.3 mentions
// "NQS queues, queue complexes, and the full range of individual queue
// parameters").
type Complex struct {
	Name     string
	Blocks   []string
	RunLimit int
}

// System is the simulated SUPER-UX instance.
type System struct {
	Blocks    map[string]*ResourceBlock
	Complexes map[string]Complex
	Jobs      map[int]*Job

	Clock  float64
	nextID int
	blocks []*ResourceBlock // Blocks' values in registration order (determinism)
	queue  []int            // queued job IDs in priority+submission order
	active []int
	log    []logEntry // qcat lines the jobs' own fields cannot reproduce

	// injector is the attached fault schedule (nil = fault-free);
	// faultsDelivered counts schedule events already applied, so a
	// checkpointed system never redelivers a fault after Restart.
	injector        fault.Injector
	faultsDelivered int
	// schedule caches the injector's full event window: the event loop
	// consults the next undelivered fault on every step, and the
	// schedule is immutable once attached.
	schedule       []fault.Event
	scheduleLoaded bool

	// migrator, when installed, is offered every job a fault leaves
	// homeless on this node before the job is declared Failed; see
	// SetMigrator. Like the injector it is runner-owned state and is
	// never serialized into a checkpoint.
	migrator func(Job) bool
}

// NewSystem builds a system with the given resource blocks. Block
// names must be unique and CPU limits positive.
func NewSystem(blocks ...ResourceBlock) *System {
	s := &System{
		Blocks:    map[string]*ResourceBlock{},
		Complexes: map[string]Complex{},
		Jobs:      map[int]*Job{},
	}
	for _, b := range blocks {
		if b.MaxCPUs <= 0 || b.MinCPUs < 0 || b.MinCPUs > b.MaxCPUs {
			panic(fmt.Sprintf("superux: bad CPU limits in block %q", b.Name))
		}
		if _, dup := s.Blocks[b.Name]; dup {
			panic(fmt.Sprintf("superux: duplicate block %q", b.Name))
		}
		rb := b
		s.Blocks[b.Name] = &rb
		s.blocks = append(s.blocks, &rb)
	}
	return s
}

// Submit enqueues a job and returns its ID.
func (s *System) Submit(j Job) int {
	blk, ok := s.Blocks[j.Block]
	if !ok {
		panic(fmt.Sprintf("superux: unknown resource block %q", j.Block))
	}
	if j.CPUs <= 0 || j.CPUs > blk.MaxCPUs {
		panic(fmt.Sprintf("superux: job %q requests %d CPUs; block %q allows up to %d",
			j.Name, j.CPUs, j.Block, blk.MaxCPUs))
	}
	if j.MemGB > blk.MemGB {
		panic(fmt.Sprintf("superux: job %q exceeds block memory", j.Name))
	}
	s.nextID++
	j.ID = s.nextID
	j.State = Queued
	j.SubmitAt = s.Clock
	s.Jobs[j.ID] = &j
	s.queue = append(s.queue, j.ID)
	// A submission against a block a fault already took down is
	// rebound to a surviving block, or reported failed — not dropped.
	if blk.Failed {
		if home, ok := s.Home(j.CPUs, j.MemGB); ok {
			j.Block = home
		} else {
			s.failJob(&j)
			return j.ID
		}
	}
	s.sortQueue()
	s.dispatch()
	return j.ID
}

func (s *System) sortQueue() {
	slices.SortStableFunc(s.queue, func(a, b int) int {
		ja, jb := s.Jobs[a], s.Jobs[b]
		if c := cmp.Compare(jb.Priority, ja.Priority); c != 0 {
			return c
		}
		return cmp.Compare(ja.ID, jb.ID)
	})
}

// AddComplex registers a queue complex. Member blocks must exist and
// the run limit must be positive.
func (s *System) AddComplex(c Complex) {
	if c.RunLimit <= 0 {
		panic(fmt.Sprintf("superux: complex %q needs a positive run limit", c.Name))
	}
	for _, b := range c.Blocks {
		if _, ok := s.Blocks[b]; !ok {
			panic(fmt.Sprintf("superux: complex %q references unknown block %q", c.Name, b))
		}
	}
	s.Complexes[c.Name] = c
}

// complexAllows reports whether starting one more job in block would
// stay inside every complex limit covering that block.
func (s *System) complexAllows(block string) bool {
	for _, c := range s.Complexes {
		member := false
		for _, b := range c.Blocks {
			if b == block {
				member = true
				break
			}
		}
		if !member {
			continue
		}
		running := 0
		for _, id := range s.active {
			j := s.Jobs[id]
			for _, b := range c.Blocks {
				if j.Block == b {
					running++
					break
				}
			}
		}
		if running >= c.RunLimit {
			return false
		}
	}
	return true
}

// dispatch starts every queued job that fits its block's free capacity,
// respecting each block's policy and every complex run limit.
func (s *System) dispatch() {
	blocked := map[string]bool{} // FIFO blocks stalled by their head job
	remaining := s.queue[:0]
	for _, id := range s.queue {
		j := s.Jobs[id]
		blk := s.Blocks[j.Block]
		fits := !blk.Failed &&
			blk.usedCPUs+j.CPUs <= blk.MaxCPUs && blk.usedMem+j.MemGB <= blk.MemGB &&
			s.complexAllows(j.Block)
		if blocked[j.Block] || !fits {
			if blk.Policy == FIFO {
				blocked[j.Block] = true // preserve order: later jobs wait
			}
			remaining = append(remaining, id)
			continue
		}
		blk.usedCPUs += j.CPUs
		blk.usedMem += j.MemGB
		j.State = Running
		j.StartAt = s.Clock
		j.FinishAt = s.Clock + j.Seconds
		s.active = append(s.active, id)
	}
	s.queue = remaining
}

// Advance runs the event loop until no job is running or queued,
// returning the completion (virtual) time. Jobs submitted before the
// call are processed; the simulation is deterministic. While jobs run,
// events from the attached fault schedule are interleaved with
// completion events in simulated-time order (a completion wins a tie,
// so a job that finishes exactly when a fault lands has finished).
func (s *System) Advance() float64 {
	for len(s.active) > 0 {
		next := s.nextCompletion()
		if e, ok := s.nextFault(); ok && e.At < s.Jobs[next].FinishAt {
			s.deliverFault(e)
			continue
		}
		s.complete(next)
	}
	return s.Clock
}

// nextCompletion returns the active job with the earliest finish time
// (ties broken by lower ID). Callers guarantee active is non-empty.
func (s *System) nextCompletion() int {
	next := -1
	for _, id := range s.active {
		if next == -1 || s.Jobs[id].FinishAt < s.Jobs[next].FinishAt ||
			(s.Jobs[id].FinishAt == s.Jobs[next].FinishAt && id < next) {
			next = id
		}
	}
	return next
}

// complete retires one running job and redispatches.
func (s *System) complete(next int) {
	j := s.Jobs[next]
	s.Clock = j.FinishAt
	j.State = Done
	blk := s.Blocks[j.Block]
	blk.usedCPUs -= j.CPUs
	blk.usedMem -= j.MemGB
	// Remove from active.
	for i, id := range s.active {
		if id == next {
			s.active = append(s.active[:i], s.active[i+1:]...)
			break
		}
	}
	s.dispatch()
}

// QCat returns the stdout produced so far by a job — the SUPER-UX NQS
// qcat command, which can inspect an executing batch script's output.
// The text is rendered on demand: first the job's logged lines (runs a
// checkpoint cut short, checkpoints, moves, migration or failure),
// then its current run's start and finish from its own fields.
func (s *System) QCat(id int) (string, error) {
	j, ok := s.Jobs[id]
	if !ok {
		return "", fmt.Errorf("superux: no job %d", id)
	}
	var b strings.Builder
	for _, e := range s.log {
		if e.Job == id {
			e.render(&b, j)
		}
	}
	if j.State == Running || j.State == Done {
		logEntry{Job: id, Kind: logStarted, Clock: j.StartAt}.render(&b, j)
	}
	if j.State == Done {
		fmt.Fprintf(&b, "job %d (%s) finished at %.2f\n", j.ID, j.Name, j.FinishAt)
	}
	return b.String(), nil
}

// logKind is the kind of one logged qcat line.
type logKind uint8

const (
	logStarted logKind = iota // a run's start; logged only for runs a checkpoint cut short
	logCheckpointed
	logMoved
	logMigrated
	logFailed
)

// logEntry is one qcat line in structured form, rendered only when
// QCat asks. Block is set for logMoved, Remaining for logCheckpointed.
type logEntry struct {
	Job       int
	Kind      logKind
	Clock     float64
	Block     string
	Remaining float64
}

// render appends the entry's qcat line for job j.
func (e logEntry) render(b *strings.Builder, j *Job) {
	switch e.Kind {
	case logStarted:
		fmt.Fprintf(b, "job %d (%s) started at %.2f\n", j.ID, j.Name, e.Clock)
	case logCheckpointed:
		fmt.Fprintf(b, "job %d (%s) checkpointed at %.2f (%.2fs remaining)\n", j.ID, j.Name, e.Clock, e.Remaining)
	case logMoved:
		fmt.Fprintf(b, "job %d (%s) moved to block %s at %.2f\n", j.ID, j.Name, e.Block, e.Clock)
	case logMigrated:
		fmt.Fprintf(b, "job %d (%s) migrated off node at %.2f: no surviving resource block here\n", j.ID, j.Name, e.Clock)
	case logFailed:
		fmt.Fprintf(b, "job %d (%s) failed at %.2f: no surviving resource block\n", j.ID, j.Name, e.Clock)
	}
}

// Status returns a job's state.
func (s *System) Status(id int) (JobState, error) {
	j, ok := s.Jobs[id]
	if !ok {
		return 0, fmt.Errorf("superux: no job %d", id)
	}
	return j.State, nil
}

// Makespan returns the latest finish time among completed jobs.
func (s *System) Makespan() float64 {
	best := 0.0
	for _, j := range s.Jobs {
		if j.State == Done && j.FinishAt > best {
			best = j.FinishAt
		}
	}
	return best
}

// --- checkpoint / restart ---

// snapshot is the serializable scheduler state. The fault injector is
// deliberately not serialized (it is an interface the runner owns);
// FaultsDelivered survives so a restarted system with the same
// schedule re-attached never redelivers an already-applied fault.
type snapshot struct {
	Blocks          map[string]ResourceBlock
	Complexes       map[string]Complex
	Jobs            map[int]Job
	Clock           float64
	NextID          int
	Order           []string
	Queue           []int
	Active          []int
	Log             []logEntry
	FaultsDelivered int
}

// Checkpoint serializes the full system state; no special programming
// is required of the jobs.
func (s *System) Checkpoint() ([]byte, error) {
	snap := snapshot{
		Blocks:          map[string]ResourceBlock{},
		Complexes:       map[string]Complex{},
		Jobs:            map[int]Job{},
		Clock:           s.Clock,
		NextID:          s.nextID,
		Order:           s.BlockNames(),
		Queue:           append([]int(nil), s.queue...),
		Active:          append([]int(nil), s.active...),
		Log:             append([]logEntry(nil), s.log...),
		FaultsDelivered: s.faultsDelivered,
	}
	for name, c := range s.Complexes {
		snap.Complexes[name] = c
	}
	for name, b := range s.Blocks {
		sb := *b
		sb.usedCPUs = b.usedCPUs
		sb.usedMem = b.usedMem
		snap.Blocks[name] = sb
	}
	for id, j := range s.Jobs {
		snap.Jobs[id] = *j
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&snap); err != nil {
		return nil, fmt.Errorf("superux: checkpoint: %w", err)
	}
	return buf.Bytes(), nil
}

// Restart reconstructs a system from a checkpoint. A corrupt snapshot
// — negative clock, unknown job state, a block stored under another
// block's name, a job referencing an undefined resource block, a
// queue/active/log entry naming a missing job, or a log entry of
// unknown kind — is rejected rather than round-tripped silently. The
// fault schedule is not part of the checkpoint; re-attach it with
// SetInjector.
func Restart(data []byte) (*System, error) {
	var snap snapshot
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&snap); err != nil {
		return nil, fmt.Errorf("superux: restart: %w", err)
	}
	if err := snap.validate(); err != nil {
		return nil, fmt.Errorf("superux: restart: %w", err)
	}
	s := &System{
		Blocks:          map[string]*ResourceBlock{},
		Complexes:       map[string]Complex{},
		Jobs:            map[int]*Job{},
		Clock:           snap.Clock,
		nextID:          snap.NextID,
		queue:           snap.Queue,
		active:          snap.Active,
		log:             snap.Log,
		faultsDelivered: snap.FaultsDelivered,
	}
	for name, c := range snap.Complexes {
		s.Complexes[name] = c
	}
	for name, b := range snap.Blocks {
		rb := b
		s.Blocks[name] = &rb
	}
	for id, j := range snap.Jobs {
		jj := j
		s.Jobs[id] = &jj
	}
	// Older checkpoints carry no registration order; fall back to the
	// lexical order so restarted systems stay deterministic.
	order := snap.Order
	if len(order) != len(s.Blocks) {
		order = order[:0]
		for name := range s.Blocks {
			order = append(order, name)
		}
		sort.Strings(order)
	}
	for _, name := range order {
		s.blocks = append(s.blocks, s.Blocks[name])
	}
	// Recompute block usage from running jobs (usage fields are
	// unexported and not serialized).
	for _, b := range s.Blocks {
		b.usedCPUs, b.usedMem = 0, 0
	}
	for _, id := range s.active {
		j := s.Jobs[id]
		blk := s.Blocks[j.Block]
		blk.usedCPUs += j.CPUs
		blk.usedMem += j.MemGB
	}
	return s, nil
}

// validate rejects corrupt checkpoints before they become a System.
func (snap *snapshot) validate() error {
	switch {
	case snap.Clock < 0 || snap.Clock != snap.Clock:
		return fmt.Errorf("negative or NaN clock %v", snap.Clock)
	case snap.NextID < 0:
		return fmt.Errorf("negative job counter %d", snap.NextID)
	case snap.FaultsDelivered < 0:
		return fmt.Errorf("negative delivered-fault count %d", snap.FaultsDelivered)
	}
	for name, b := range snap.Blocks {
		if b.Name != name {
			return fmt.Errorf("block %q is stored under name %q", b.Name, name)
		}
	}
	for id, j := range snap.Jobs {
		if j.State < Queued || j.State > Migrated {
			return fmt.Errorf("job %d has unknown state %d", id, int(j.State))
		}
		if _, ok := snap.Blocks[j.Block]; !ok {
			return fmt.Errorf("job %d references undefined resource block %q", id, j.Block)
		}
	}
	for _, id := range snap.Queue {
		if _, ok := snap.Jobs[id]; !ok {
			return fmt.Errorf("queued job %d does not exist", id)
		}
	}
	for _, id := range snap.Active {
		if _, ok := snap.Jobs[id]; !ok {
			return fmt.Errorf("active job %d does not exist", id)
		}
	}
	for _, e := range snap.Log {
		if _, ok := snap.Jobs[e.Job]; !ok {
			return fmt.Errorf("log entry names job %d, which does not exist", e.Job)
		}
		if e.Kind > logFailed {
			return fmt.Errorf("log entry for job %d has unknown kind %d", e.Job, e.Kind)
		}
	}
	for _, name := range snap.Order {
		if _, ok := snap.Blocks[name]; !ok {
			return fmt.Errorf("block order names undefined block %q", name)
		}
	}
	return nil
}
