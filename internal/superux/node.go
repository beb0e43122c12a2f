package superux

// This file is the fleet-node surface of the scheduler: the handful of
// read-only probes and the migration hook internal/fleet needs to run
// many Systems side by side behind one NQS-style cluster queue. The
// event loop itself is untouched — a fleet advances each node with
// AdvanceUntil to the globally earliest event time, and these helpers
// let it pick that time and route work without reaching into
// unexported state.

// SetMigrator installs the cluster-level recovery hook: when a fault
// leaves a job with no surviving resource block on this node, the
// migrator is offered a copy of the job before it is declared Failed.
// Returning true accepts the job — its state here becomes Migrated
// (terminal on this node) and the caller owns resubmitting the
// remaining work elsewhere. A nil migrator (the default) restores the
// single-node behaviour: homeless jobs fail. Like the fault plan,
// the migrator is runner-owned and never rides a checkpoint; re-attach
// it after Restart.
func (s *System) SetMigrator(fn func(Job) bool) { s.migrator = fn }

// NextEventAt returns the simulated time of the node's next pending
// event — the earliest of the next job completion and the next
// undelivered fault — and whether one exists. A fleet driver uses it
// to advance the nodes to the globally earliest event, which preserves
// the completions-win-ties rule fleet-wide: every node reaches the tie
// time before any cross-node action is taken at it.
func (s *System) NextEventAt() (float64, bool) {
	at, ok := 0.0, false
	if len(s.active) > 0 {
		at, ok = s.slot(s.nextCompletion()).FinishAt, true
	}
	if fa, have := s.nextFaultAt(); have && (!ok || fa < at) {
		at, ok = fa, true
	}
	return at, ok
}

// Home returns the first surviving resource block (registration
// order) whose limits admit a job of the given shape — where a fault
// recovery rebinds a homeless job, and where the fleet dispatcher
// submits. Like CanHold it is a capacity-class check, not an
// instantaneous-load check.
func (s *System) Home(cpus int, memGB float64) (string, bool) {
	if i := s.home(cpus, memGB); i >= 0 {
		return s.blocks[i].Name, true
	}
	return "", false
}

// home is Home as a registration index, -1 when no block fits.
func (s *System) home(cpus int, memGB float64) int {
	for i, b := range s.blocks {
		if !b.Failed && cpus <= b.MaxCPUs && memGB <= b.MemGB {
			return i
		}
	}
	return -1
}

// CanHold reports whether some surviving resource block's limits admit
// a job of the given shape (see Home): a true answer means the job can
// eventually run here, possibly after queueing.
func (s *System) CanHold(cpus int, memGB float64) bool { return s.home(cpus, memGB) >= 0 }

// Backlog returns the simulated seconds of work the node still owes:
// the remaining time of every running job plus the full duration of
// everything queued. The fleet dispatcher uses it as the load signal
// when choosing a home for new arrivals.
func (s *System) Backlog() float64 {
	total := 0.0
	for _, id := range s.active {
		if remaining := s.slot(id).FinishAt - s.Clock; remaining > 0 {
			total += remaining
		}
	}
	for _, id := range s.queue {
		total += s.slot(id).Seconds
	}
	return total
}
