package superux

import (
	"slices"
	"sort"

	"sx4bench/internal/fault"
)

// RestartOverheadSeconds is the simulated cost of recovering one job
// from its transparent checkpoint: the remaining work is requeued with
// this penalty added.
const RestartOverheadSeconds = 5.0

// SetInjector attaches a fault schedule. Events are delivered during
// Advance/AdvanceUntil, interleaved with job completions in
// simulated-time order. A nil plan (the default) is fault-free;
// attaching one after a Restart resumes delivery where the checkpoint
// left off. The system reads the plan's events in place, so the plan
// must not change while it is attached.
func (s *System) SetInjector(p *fault.Plan) { s.plan = p }

// nextFaultAt returns the delivery time of the earliest schedule event
// not yet delivered.
func (s *System) nextFaultAt() (float64, bool) {
	if s.plan == nil || s.faultsDelivered >= len(s.plan.Events) {
		return 0, false
	}
	return s.plan.Events[s.faultsDelivered].At, true
}

// deliverFault applies the next undelivered schedule event (callers
// have seen nextFaultAt report one) to the scheduler. CPU failures
// take down a resource block and recover its jobs onto the survivors;
// job kills checkpoint and requeue the victim; bank and IOP events
// degrade only the machine models, not the scheduler.
func (s *System) deliverFault() {
	e := &s.plan.Events[s.faultsDelivered]
	if e.At > s.Clock {
		s.Clock = e.At
	}
	s.faultsDelivered++
	switch e.Kind {
	case fault.CPUFail:
		s.failBlock(e.Unit)
	case fault.JobKill:
		s.killJob(e.Unit)
	}
}

// failBlock takes the unit-th surviving resource block (registration
// order, modulo the survivor count) out of service: running jobs are
// checkpointed, and every job bound to the block is requeued on the
// first surviving block that can hold it, or reported failed — never
// dropped. With no surviving block the event is a no-op (the machine
// is already gone).
func (s *System) failBlock(unit int) {
	var surviving []int
	for i, b := range s.blocks {
		if !b.Failed {
			surviving = append(surviving, i)
		}
	}
	if len(surviving) == 0 {
		return
	}
	victim := surviving[unit%len(surviving)]
	s.blocks[victim].Failed = true

	// Checkpoint the block's running jobs (ascending ID for
	// determinism), freeing their resources.
	var running []int
	for _, id := range s.active {
		if s.slot(id).blk == victim {
			running = append(running, id)
		}
	}
	sort.Ints(running)
	for _, id := range running {
		s.checkpointJob(id)
	}
	// Rebind every job still queued on the failed block (the
	// checkpointed ones are among them now), in queue order with the
	// checkpointed jobs last.
	for _, id := range append([]int(nil), s.queue...) {
		j := s.slot(id)
		if j.blk != victim {
			continue
		}
		if home := s.home(j.CPUs, j.MemGB); home >= 0 {
			s.bind(j, home)
			s.log = append(s.log, logEntry{Job: id, Kind: logMoved, Clock: s.Clock, Block: j.Block})
		} else {
			s.failJob(id)
		}
	}
	s.sortQueue()
	s.dispatch()
}

// killJob kills the unit-th running job (ascending ID, modulo the
// running count) and recovers it from its checkpoint: the remaining
// work is requeued on the same block with the restart overhead added.
func (s *System) killJob(unit int) {
	if len(s.active) == 0 {
		return
	}
	ids := append([]int(nil), s.active...)
	sort.Ints(ids)
	s.checkpointJob(ids[unit%len(ids)])
	s.sortQueue()
	s.dispatch()
}

// checkpointJob stops a running job, converts it to a queued job whose
// Seconds is the unfinished work plus the restart overhead, and frees
// its block resources. The job joins the queue's tail; the caller
// restores queue order.
func (s *System) checkpointJob(id int) {
	j := s.slot(id)
	remaining := j.FinishAt - s.Clock
	if remaining < 0 {
		remaining = 0
	}
	blk := &s.blocks[j.blk]
	blk.usedCPUs -= j.CPUs
	blk.usedMem -= j.MemGB
	s.deactivate(id)
	j.State = Queued
	j.Seconds = remaining + RestartOverheadSeconds
	j.Restarts++
	s.log = append(s.log,
		logEntry{Job: id, Kind: logStarted, Clock: j.StartAt},
		logEntry{Job: id, Kind: logCheckpointed, Clock: s.Clock, Remaining: remaining})
	s.queue = append(s.queue, id)
}

// failJob handles a job no surviving resource block on this node can
// hold: the installed migrator (if any) is offered the job first —
// acceptance makes the job Migrated, terminal here, continued
// elsewhere by the fleet layer — and otherwise the job is reported
// Failed. Both outcomes remove it from the queue but keep it in the
// job table with its state and qcat history intact, so no submission
// is ever silently dropped.
func (s *System) failJob(id int) {
	if i := slices.Index(s.queue, id); i >= 0 {
		s.queue = slices.Delete(s.queue, i, i+1)
	}
	state, kind := Failed, logFailed
	if s.migrator != nil && s.migrator(s.slot(id).Job) {
		state, kind = Migrated, logMigrated
	}
	j := s.slot(id)
	j.State = state
	j.FinishAt = s.Clock
	s.log = append(s.log, logEntry{Job: id, Kind: kind, Clock: s.Clock})
}

// AdvanceUntil runs the event loop up to simulated time t: completions
// and fault events at or before t are processed (completions win
// ties, as in Advance), later ones stay pending, and the clock lands
// on t. Unlike Advance it delivers due faults even while no job runs,
// so an idle system still loses the block a scheduled CPU failure
// takes down.
func (s *System) AdvanceUntil(t float64) float64 {
	for {
		next, doneAt := 0, 0.0
		if len(s.active) > 0 {
			next = s.nextCompletion()
			doneAt = s.slot(next).FinishAt
		}
		dueCompletion := next != 0 && doneAt <= t
		faultAt, ok := s.nextFaultAt()
		switch {
		case ok && faultAt <= t && (!dueCompletion || faultAt < doneAt):
			s.deliverFault()
		case dueCompletion:
			s.complete(next)
		default:
			if t > s.Clock {
				s.Clock = t
			}
			return s.Clock
		}
	}
}

// Tally reports the recovery accounting after the event loop has gone
// idle: recovered jobs completed after at least one checkpoint-driven
// restart, failed jobs were reported unrecoverable, and lost jobs are
// in neither a terminal nor a schedulable state — the count the
// no-lost-jobs invariant pins to zero.
func (s *System) Tally() (recovered, failed, lost int) {
	for id := 1; id <= s.nextID; id++ {
		switch j := s.slot(id); {
		case j.State == Done && j.Restarts > 0:
			recovered++
		case j.State == Failed:
			failed++
		case j.State == Migrated:
			// Accounted by the fleet layer that accepted it; the job
			// continues on another node and is neither failed nor lost
			// here.
		case j.State != Done && j.State != Queued && j.State != Running:
			lost++
		case len(s.active) == 0 && (j.State == Queued || j.State == Running):
			// Jobs still queued or running after the system idled are
			// equally lost: nothing will ever schedule them.
			lost++
		}
	}
	return recovered, failed, lost
}
