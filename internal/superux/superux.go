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
	Clock float64

	blocks    []ResourceBlock // in registration order
	complexes []Complex       // in registration order
	nextID    int
	// jobs is the job table: job id lives at jobs[(id-1)/jobChunk]
	// [(id-1)%jobChunk]. Submit hands out ids 1, 2, 3 …, so the table
	// is dense, and fixed-size chunks let it grow without moving a job.
	jobs    []*[jobChunk]jobSlot
	queue   []int // queued job IDs in priority+submission order
	active  []int
	stalled []bool     // dispatch's per-block FIFO stall flags, by block index
	log     []logEntry // qcat lines the jobs' own fields cannot reproduce
	// nextDone caches the active job that completes first (see
	// nextCompletion); 0 means it must be found again.
	nextDone int

	// plan is the attached fault schedule (nil = fault-free);
	// faultsDelivered counts its events already applied, so a
	// checkpointed system never redelivers a fault after Restart.
	plan            *fault.Plan
	faultsDelivered int

	// migrator, when installed, is offered every job a fault leaves
	// homeless on this node before the job is declared Failed; see
	// SetMigrator. Like the plan it is runner-owned state and is never
	// serialized into a checkpoint.
	migrator func(Job) bool
}

// jobChunk is the number of jobs in one chunk of the job table.
const jobChunk = 64

// jobSlot is one job-table entry: the job and the index of its
// resource block in registration order, kept beside Job.Block so the
// event loop never looks a block up by name.
type jobSlot struct {
	Job
	blk int
}

// NewSystem builds a system with the given resource blocks. Block
// names must be unique and CPU limits positive.
func NewSystem(blocks ...ResourceBlock) *System {
	s := &System{}
	s.Reset(blocks...)
	return s
}

// Reset returns the system to the state NewSystem(blocks...) builds —
// no jobs, no complexes, clock zero, no fault plan or migrator —
// while keeping its storage for reuse. Block names must be unique and
// CPU limits positive.
func (s *System) Reset(blocks ...ResourceBlock) {
	if err := checkBlocks(blocks); err != nil {
		panic("superux: " + err.Error())
	}
	s.blocks = append(s.blocks[:0], blocks...)
	s.complexes = s.complexes[:0]
	s.Clock, s.nextID, s.nextDone = 0, 0, 0
	s.queue, s.active, s.log = s.queue[:0], s.active[:0], s.log[:0]
	s.plan, s.faultsDelivered = nil, 0
	s.migrator = nil
}

// Job returns a copy of job id, or false when no such job exists.
func (s *System) Job(id int) (Job, bool) {
	if id < 1 || id > s.nextID {
		return Job{}, false
	}
	return s.slot(id).Job, true
}

// NumJobs returns how many jobs were ever submitted: the valid job IDs
// are 1 through NumJobs().
func (s *System) NumJobs() int { return s.nextID }

// slot returns job id's table entry. Callers guarantee 1 <= id <=
// nextID. The entry holds job id until the next Reset: a later Submit
// adds chunks but never moves one.
func (s *System) slot(id int) *jobSlot {
	i := uint(id - 1)
	return &s.jobs[i/jobChunk][i%jobChunk]
}

// checkBlocks reports the first block with bad CPU limits or a name an
// earlier block already took.
func checkBlocks(blocks []ResourceBlock) error {
	for i, b := range blocks {
		if b.MaxCPUs <= 0 || b.MinCPUs < 0 || b.MinCPUs > b.MaxCPUs {
			return fmt.Errorf("bad CPU limits in block %q", b.Name)
		}
		if blockIndex(blocks[:i], b.Name) >= 0 {
			return fmt.Errorf("duplicate block %q", b.Name)
		}
	}
	return nil
}

// blockIndex returns the index of the named block in blocks, or -1.
func blockIndex(blocks []ResourceBlock, name string) int {
	for i := range blocks {
		if blocks[i].Name == name {
			return i
		}
	}
	return -1
}

// addSlot hands out the next job id and returns its table entry.
func (s *System) addSlot() *jobSlot {
	s.nextID++
	if i := uint(s.nextID - 1); i/jobChunk == uint(len(s.jobs)) {
		s.jobs = append(s.jobs, new([jobChunk]jobSlot))
	}
	return s.slot(s.nextID)
}

// checkJob returns the index in blocks of j's resource block, or an
// error when that block is undefined or its limits do not admit j: no
// CPUs, more CPUs than the block allows, or more memory than it has.
func checkJob(j Job, blocks []ResourceBlock) (int, error) {
	bi := blockIndex(blocks, j.Block)
	if bi < 0 {
		return -1, fmt.Errorf("job %q references undefined resource block %q", j.Name, j.Block)
	}
	blk := &blocks[bi]
	if j.CPUs <= 0 || j.CPUs > blk.MaxCPUs {
		return -1, fmt.Errorf("job %q requests %d CPUs; block %q allows up to %d",
			j.Name, j.CPUs, j.Block, blk.MaxCPUs)
	}
	if j.MemGB > blk.MemGB {
		return -1, fmt.Errorf("job %q exceeds the memory of block %q", j.Name, j.Block)
	}
	return bi, nil
}

// Submit enqueues a job and returns its ID.
func (s *System) Submit(j Job) int {
	bi, err := checkJob(j, s.blocks)
	if err != nil {
		panic("superux: " + err.Error())
	}
	sl := s.addSlot()
	j.ID = s.nextID
	j.State = Queued
	j.SubmitAt = s.Clock
	sl.Job, sl.blk = j, bi
	// A submission against a block a fault already took down is
	// rebound to a surviving block, or reported failed — not dropped.
	if s.blocks[bi].Failed {
		home := s.home(j.CPUs, j.MemGB)
		if home < 0 {
			s.failJob(j.ID)
			return j.ID
		}
		s.bind(sl, home)
	}
	s.enqueue(j.ID)
	s.dispatch()
	return j.ID
}

// bind moves a job to the block with registration index bi.
func (s *System) bind(sl *jobSlot, bi int) {
	sl.blk = bi
	sl.Block = s.blocks[bi].Name
}

// queueOrder compares jobs a and b in queue order: higher priority
// first, then lower ID. The order is total over distinct jobs, so a
// queue kept in it equals the stable sort of any submission order.
func (s *System) queueOrder(a, b int) int {
	if c := cmp.Compare(s.slot(b).Priority, s.slot(a).Priority); c != 0 {
		return c
	}
	return cmp.Compare(a, b)
}

// enqueue inserts job id at its place in the queue, which is already
// in queue order.
func (s *System) enqueue(id int) {
	s.queue = append(s.queue, id)
	i := len(s.queue) - 1
	for ; i > 0 && s.queueOrder(id, s.queue[i-1]) < 0; i-- {
		s.queue[i] = s.queue[i-1]
	}
	s.queue[i] = id
}

// sortQueue restores queue order after fault recovery has appended
// checkpointed jobs at the tail.
func (s *System) sortQueue() { slices.SortFunc(s.queue, s.queueOrder) }

// AddComplex registers a queue complex, replacing any complex of the
// same name. Member blocks must exist and the run limit must be
// positive.
func (s *System) AddComplex(c Complex) {
	if err := checkComplex(c, s.blocks); err != nil {
		panic("superux: " + err.Error())
	}
	for i := range s.complexes {
		if s.complexes[i].Name == c.Name {
			s.complexes[i] = c
			return
		}
	}
	s.complexes = append(s.complexes, c)
}

// checkComplex reports a complex whose run limit is not positive or
// that names a block outside blocks.
func checkComplex(c Complex, blocks []ResourceBlock) error {
	if c.RunLimit <= 0 {
		return fmt.Errorf("complex %q needs a positive run limit", c.Name)
	}
	for _, b := range c.Blocks {
		if blockIndex(blocks, b) < 0 {
			return fmt.Errorf("complex %q references unknown block %q", c.Name, b)
		}
	}
	return nil
}

// complexAllows reports whether starting one more job in block would
// stay inside every complex limit covering that block.
func (s *System) complexAllows(block string) bool {
	for _, c := range s.complexes {
		if !slices.Contains(c.Blocks, block) {
			continue
		}
		running := 0
		for _, id := range s.active {
			if slices.Contains(c.Blocks, s.slot(id).Block) {
				running++
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
	if len(s.queue) == 0 {
		return
	}
	if cap(s.stalled) < len(s.blocks) {
		s.stalled = make([]bool, len(s.blocks))
	}
	stalled := s.stalled[:len(s.blocks)] // FIFO blocks stalled by their head job
	clear(stalled)
	remaining := s.queue[:0]
	for _, id := range s.queue {
		j := s.slot(id)
		blk := &s.blocks[j.blk]
		fits := !blk.Failed &&
			blk.usedCPUs+j.CPUs <= blk.MaxCPUs && blk.usedMem+j.MemGB <= blk.MemGB &&
			(len(s.complexes) == 0 || s.complexAllows(j.Block))
		if stalled[j.blk] || !fits {
			if blk.Policy == FIFO {
				stalled[j.blk] = true // preserve order: later jobs wait
			}
			remaining = append(remaining, id)
			continue
		}
		blk.usedCPUs += j.CPUs
		blk.usedMem += j.MemGB
		j.State = Running
		j.StartAt = s.Clock
		j.FinishAt = s.Clock + j.Seconds
		if len(s.active) == 0 || (s.nextDone != 0 && s.finishesBefore(id, s.nextDone)) {
			s.nextDone = id
		}
		s.active = append(s.active, id)
	}
	s.queue = remaining
}

// finishesBefore reports whether running job a completes before
// running job b: earlier FinishAt, ties to the lower ID.
func (s *System) finishesBefore(a, b int) bool {
	fa, fb := s.slot(a).FinishAt, s.slot(b).FinishAt
	return fa < fb || (fa == fb && a < b)
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
		if at, ok := s.nextFaultAt(); ok && at < s.slot(next).FinishAt {
			s.deliverFault()
			continue
		}
		s.complete(next)
	}
	return s.Clock
}

// nextCompletion returns the active job with the earliest finish time
// (ties broken by lower ID). Callers guarantee active is non-empty.
// The answer is cached until the job it names leaves the active set;
// dispatch keeps the cache current as jobs start.
func (s *System) nextCompletion() int {
	if s.nextDone == 0 {
		next := s.active[0]
		for _, id := range s.active[1:] {
			if s.finishesBefore(id, next) {
				next = id
			}
		}
		s.nextDone = next
	}
	return s.nextDone
}

// deactivate removes a running job from the active set, keeping the
// set's order.
func (s *System) deactivate(id int) {
	if i := slices.Index(s.active, id); i >= 0 {
		s.active = slices.Delete(s.active, i, i+1)
	}
	if id == s.nextDone {
		s.nextDone = 0
	}
}

// complete retires one running job and redispatches.
func (s *System) complete(next int) {
	j := s.slot(next)
	s.Clock = j.FinishAt
	j.State = Done
	blk := &s.blocks[j.blk]
	blk.usedCPUs -= j.CPUs
	blk.usedMem -= j.MemGB
	s.deactivate(next)
	s.dispatch()
}

// QCat returns the stdout produced so far by a job — the SUPER-UX NQS
// qcat command, which can inspect an executing batch script's output.
// The text is rendered on demand: first the job's logged lines (runs a
// checkpoint cut short, checkpoints, moves, migration or failure),
// then its current run's start and finish from its own fields.
func (s *System) QCat(id int) (string, error) {
	if id < 1 || id > s.nextID {
		return "", fmt.Errorf("superux: no job %d", id)
	}
	j := &s.slot(id).Job
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
	if id < 1 || id > s.nextID {
		return 0, fmt.Errorf("superux: no job %d", id)
	}
	return s.slot(id).State, nil
}

// Makespan returns the latest finish time among completed jobs.
func (s *System) Makespan() float64 {
	best := 0.0
	for id := 1; id <= s.nextID; id++ {
		if j := s.slot(id); j.State == Done && j.FinishAt > best {
			best = j.FinishAt
		}
	}
	return best
}

// --- checkpoint / restart ---

// snapshot is the serializable scheduler state: blocks and complexes
// in registration order and job id i+1 at Jobs[i], so one state always
// encodes to one byte string. The fault plan is deliberately not
// serialized (the runner owns it and re-attaches it); FaultsDelivered
// survives so a restarted system with the same schedule re-attached
// never redelivers an already-applied fault.
type snapshot struct {
	Blocks          []ResourceBlock
	QueueComplexes  []Complex
	Jobs            []Job
	Clock           float64
	Queue           []int
	Active          []int
	Log             []logEntry
	FaultsDelivered int
}

// Checkpoint serializes the full system state; no special programming
// is required of the jobs.
func (s *System) Checkpoint() ([]byte, error) {
	snap := snapshot{
		Blocks:          s.blocks,
		QueueComplexes:  s.complexes,
		Jobs:            make([]Job, s.nextID),
		Clock:           s.Clock,
		Queue:           s.queue,
		Active:          s.active,
		Log:             s.log,
		FaultsDelivered: s.faultsDelivered,
	}
	for i := range snap.Jobs {
		snap.Jobs[i] = s.slot(i + 1).Job
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&snap); err != nil {
		return nil, fmt.Errorf("superux: checkpoint: %w", err)
	}
	return buf.Bytes(), nil
}

// Restart reconstructs a system from a checkpoint. A corrupt snapshot
// — negative or NaN clock, negative delivered-fault count, a block
// with bad CPU limits or a name an earlier block took, a complex with
// a run limit below one or naming an undefined block, a job out of id
// order, of unknown state, bound to an undefined block or to one whose
// limits do not admit it, a queue/active/log entry naming a missing
// job, a job queued or running twice, or a log entry of unknown kind —
// is an error, never a panic or a silent round trip. The queue is put
// in queue order. The fault schedule is not part of the checkpoint;
// re-attach it with SetInjector.
func Restart(data []byte) (*System, error) {
	var snap snapshot
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&snap); err != nil {
		return nil, fmt.Errorf("superux: restart: %w", err)
	}
	if err := snap.validate(); err != nil {
		return nil, fmt.Errorf("superux: restart: %w", err)
	}
	s := NewSystem(snap.Blocks...)
	for _, c := range snap.QueueComplexes {
		s.AddComplex(c)
	}
	s.Clock = snap.Clock
	s.faultsDelivered = snap.FaultsDelivered
	for _, j := range snap.Jobs {
		sl := s.addSlot()
		sl.Job, sl.blk = j, blockIndex(s.blocks, j.Block)
	}
	s.queue, s.active, s.log = snap.Queue, snap.Active, snap.Log
	s.sortQueue()
	// Recompute block usage from running jobs (usage fields are
	// unexported and not serialized).
	for _, id := range s.active {
		j := s.slot(id)
		blk := &s.blocks[j.blk]
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
	case snap.FaultsDelivered < 0:
		return fmt.Errorf("negative delivered-fault count %d", snap.FaultsDelivered)
	}
	if err := checkBlocks(snap.Blocks); err != nil {
		return err
	}
	for _, c := range snap.QueueComplexes {
		if err := checkComplex(c, snap.Blocks); err != nil {
			return err
		}
	}
	for i, j := range snap.Jobs {
		if j.ID != i+1 {
			return fmt.Errorf("job %d is stored as job %d", j.ID, i+1)
		}
		if j.State < Queued || j.State > Migrated {
			return fmt.Errorf("job %d has unknown state %d", j.ID, int(j.State))
		}
		if _, err := checkJob(j, snap.Blocks); err != nil {
			return fmt.Errorf("job %d: %w", j.ID, err)
		}
	}
	exists := func(id int) bool { return id >= 1 && id <= len(snap.Jobs) }
	seen := make(map[int]bool, len(snap.Queue)+len(snap.Active))
	for _, id := range slices.Concat(snap.Queue, snap.Active) {
		if !exists(id) {
			return fmt.Errorf("queued or active job %d does not exist", id)
		}
		if seen[id] {
			return fmt.Errorf("job %d is queued or active twice", id)
		}
		seen[id] = true
	}
	for _, e := range snap.Log {
		if !exists(e.Job) {
			return fmt.Errorf("log entry names job %d, which does not exist", e.Job)
		}
		if e.Kind > logFailed {
			return fmt.Errorf("log entry for job %d has unknown kind %d", e.Job, e.Kind)
		}
	}
	return nil
}
