package superux

import (
	"math"
	"sort"

	"sx4bench/internal/fault"
)

// RestartOverheadSeconds is the simulated cost of recovering one job
// from its transparent checkpoint: the remaining work is requeued with
// this penalty added.
const RestartOverheadSeconds = 5.0

// SetInjector attaches a fault schedule. Events are delivered during
// Advance/AdvanceUntil, interleaved with job completions in
// simulated-time order. A nil injector (the default) is fault-free;
// attaching one after a Restart resumes delivery where the checkpoint
// left off.
func (s *System) SetInjector(inj fault.Injector) {
	s.injector = inj
	s.schedule = nil
	s.scheduleLoaded = false
}

// nextFault returns the earliest schedule event not yet delivered.
func (s *System) nextFault() (fault.Event, bool) {
	if s.injector == nil {
		return fault.Event{}, false
	}
	if !s.scheduleLoaded {
		s.schedule = s.injector.Window(0, math.Inf(1))
		s.scheduleLoaded = true
	}
	if s.faultsDelivered >= len(s.schedule) {
		return fault.Event{}, false
	}
	return s.schedule[s.faultsDelivered], true
}

// deliverFault applies one schedule event to the scheduler. CPU
// failures take down a resource block and recover its jobs onto the
// survivors; job kills checkpoint and requeue the victim; bank and IOP
// events degrade only the machine models, not the scheduler.
func (s *System) deliverFault(e fault.Event) {
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
	var surviving []*ResourceBlock
	for _, b := range s.blocks {
		if !b.Failed {
			surviving = append(surviving, b)
		}
	}
	if len(surviving) == 0 {
		return
	}
	victim := surviving[unit%len(surviving)]
	victim.Failed = true

	// Checkpoint the block's running jobs (ascending ID for
	// determinism), freeing their resources.
	var running []int
	for _, id := range s.active {
		if s.Jobs[id].Block == victim.Name {
			running = append(running, id)
		}
	}
	sort.Ints(running)
	for _, id := range running {
		s.checkpointJob(id)
	}
	// Rebind every job still queued on the failed block (the
	// checkpointed ones are among them now).
	for _, id := range append([]int(nil), s.queue...) {
		j := s.Jobs[id]
		if j.Block != victim.Name {
			continue
		}
		if home, ok := s.Home(j.CPUs, j.MemGB); ok {
			j.Block = home
			s.log = append(s.log, logEntry{Job: id, Kind: logMoved, Clock: s.Clock, Block: home})
		} else {
			s.failJob(j)
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
// its block resources.
func (s *System) checkpointJob(id int) {
	j := s.Jobs[id]
	remaining := j.FinishAt - s.Clock
	if remaining < 0 {
		remaining = 0
	}
	blk := s.Blocks[j.Block]
	blk.usedCPUs -= j.CPUs
	blk.usedMem -= j.MemGB
	for i, a := range s.active {
		if a == id {
			s.active = append(s.active[:i], s.active[i+1:]...)
			break
		}
	}
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
// Failed. Both outcomes remove it from the queue but keep it in Jobs
// with its state and qcat history intact, so no submission is ever
// silently dropped.
func (s *System) failJob(j *Job) {
	for i, id := range s.queue {
		if id == j.ID {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			break
		}
	}
	if s.migrator != nil && s.migrator(*j) {
		j.State = Migrated
		j.FinishAt = s.Clock
		s.log = append(s.log, logEntry{Job: j.ID, Kind: logMigrated, Clock: s.Clock})
		return
	}
	j.State = Failed
	j.FinishAt = s.Clock
	s.log = append(s.log, logEntry{Job: j.ID, Kind: logFailed, Clock: s.Clock})
}

// AdvanceUntil runs the event loop up to simulated time t: completions
// and fault events at or before t are processed (completions win
// ties, as in Advance), later ones stay pending, and the clock lands
// on t. Unlike Advance it delivers due faults even while no job runs,
// so an idle system still loses the block a scheduled CPU failure
// takes down.
func (s *System) AdvanceUntil(t float64) float64 {
	for {
		next := -1
		dueCompletion := false
		if len(s.active) > 0 {
			next = s.nextCompletion()
			dueCompletion = s.Jobs[next].FinishAt <= t
		}
		e, ok := s.nextFault()
		dueFault := ok && e.At <= t
		switch {
		case dueFault && (!dueCompletion || e.At < s.Jobs[next].FinishAt):
			s.deliverFault(e)
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
	for _, j := range s.Jobs {
		switch {
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
		}
	}
	// Jobs still queued or running after the system idled are equally
	// lost: nothing will ever schedule them.
	if len(s.active) == 0 {
		for _, j := range s.Jobs {
			if j.State == Queued || j.State == Running {
				lost++
			}
		}
	}
	return recovered, failed, lost
}
