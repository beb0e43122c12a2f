package superux

import (
	"strings"
	"testing"

	"sx4bench/internal/fault"
)

// --- all-nodes-down terminal state ---

func TestAllBlocksDownIsTerminal(t *testing.T) {
	s := twoBlockSystem()
	s.SetInjector(&fault.Plan{Events: []fault.Event{
		{At: 5, Kind: fault.CPUFail, Unit: 0},
		{At: 6, Kind: fault.CPUFail, Unit: 0},
	}})
	id := s.Submit(Job{Name: "j", Block: "batch", CPUs: 4, MemGB: 8, Seconds: 100})
	s.Advance()

	for _, b := range s.blocks {
		if !b.Failed {
			t.Fatalf("block %s survived two CPU failures", b.Name)
		}
	}
	if got := jobAt(s, id).State; got != Failed {
		t.Errorf("homeless job state = %v, want failed", got)
	}
	if _, ok := s.NextEventAt(); ok {
		t.Error("down node still advertises a pending event")
	}
	if s.CanHold(1, 0.1) {
		t.Error("down node claims it can hold work")
	}
	if b := s.Backlog(); b != 0 {
		t.Errorf("down node backlog = %v, want 0", b)
	}
	// Terminal means terminal: further submissions fail immediately and
	// nothing is ever lost.
	late := s.Submit(Job{Name: "late", Block: "batch", CPUs: 1, MemGB: 1, Seconds: 1})
	if got := jobAt(s, late).State; got != Failed {
		t.Errorf("submission to a down node state = %v, want failed", got)
	}
	if _, _, lost := s.Tally(); lost != 0 {
		t.Errorf("down node lost %d jobs, want 0", lost)
	}
}

func TestDownReflectsPartialFailure(t *testing.T) {
	s := twoBlockSystem()
	if !s.CanHold(1, 0.1) {
		t.Fatal("healthy node holds nothing")
	}
	s.SetInjector(&fault.Plan{Events: []fault.Event{{At: 1, Kind: fault.CPUFail, Unit: 0}}})
	s.AdvanceUntil(2)
	if !s.CanHold(1, 0.1) {
		t.Error("node with one surviving block holds nothing")
	}
	if !s.CanHold(8, 64) {
		t.Error("surviving block's capacity not visible through CanHold")
	}
	if s.CanHold(9, 64) {
		t.Error("CanHold admits a shape no block ever could")
	}
}

// --- migration hook ---

func TestMigratorOfferedBeforeFailure(t *testing.T) {
	s := NewSystem(ResourceBlock{Name: "only", MaxCPUs: 8, MemGB: 64, Policy: FIFO})
	s.SetInjector(&fault.Plan{Events: []fault.Event{{At: 10, Kind: fault.CPUFail, Unit: 0}}})
	var offered []Job
	s.SetMigrator(func(j Job) bool {
		offered = append(offered, j)
		return true
	})
	id := s.Submit(Job{Name: "movable", Block: "only", CPUs: 4, MemGB: 8, Seconds: 30})
	s.Advance()

	j := jobAt(s, id)
	if j.State != Migrated {
		t.Fatalf("state = %v, want migrated", j.State)
	}
	if j.FinishAt != 10 {
		t.Errorf("migration stamped at %v, want 10 (the fault time)", j.FinishAt)
	}
	if len(offered) != 1 {
		t.Fatalf("migrator called %d times, want 1", len(offered))
	}
	// The offered job carries the checkpointed remaining work plus the
	// restart overhead — what the accepting node must actually run.
	if want := 20 + RestartOverheadSeconds; offered[0].Seconds != want {
		t.Errorf("offered Seconds = %v, want %v", offered[0].Seconds, want)
	}
	if offered[0].Restarts != 1 {
		t.Errorf("offered Restarts = %d, want 1", offered[0].Restarts)
	}
	rec, failed, lost := s.Tally()
	if rec != 0 || failed != 0 || lost != 0 {
		t.Errorf("tally = (%d,%d,%d), want (0,0,0): migrated jobs are the fleet's to count", rec, failed, lost)
	}
	out, _ := s.QCat(id)
	if !strings.Contains(out, "migrated off node") {
		t.Errorf("qcat output missing migration record:\n%s", out)
	}
}

func TestMigratorDeclineFailsJob(t *testing.T) {
	s := NewSystem(ResourceBlock{Name: "only", MaxCPUs: 8, MemGB: 64, Policy: FIFO})
	s.SetInjector(&fault.Plan{Events: []fault.Event{{At: 10, Kind: fault.CPUFail, Unit: 0}}})
	s.SetMigrator(func(Job) bool { return false })
	id := s.Submit(Job{Name: "stuck", Block: "only", CPUs: 4, MemGB: 8, Seconds: 30})
	s.Advance()
	if got := jobAt(s, id).State; got != Failed {
		t.Errorf("declined job state = %v, want failed", got)
	}
	if _, failed, lost := s.Tally(); failed != 1 || lost != 0 {
		t.Errorf("tally failed/lost = %d/%d, want 1/0", failed, lost)
	}
}

func TestMigratorNotOfferedWhenLocalRecoveryWorks(t *testing.T) {
	s := twoBlockSystem()
	s.SetInjector(&fault.Plan{Events: []fault.Event{{At: 10, Kind: fault.CPUFail, Unit: 0}}})
	called := false
	s.SetMigrator(func(Job) bool { called = true; return true })
	id := s.Submit(Job{Name: "j", Block: "batch", CPUs: 4, MemGB: 8, Seconds: 30})
	s.Advance()
	if called {
		t.Error("migrator consulted although a surviving block could hold the job")
	}
	if got := jobAt(s, id).State; got != Done {
		t.Errorf("state = %v, want done (local recovery)", got)
	}
}

func TestMigratorDoesNotRideCheckpoints(t *testing.T) {
	s := NewSystem(ResourceBlock{Name: "only", MaxCPUs: 8, MemGB: 64, Policy: FIFO})
	s.SetMigrator(func(Job) bool { return true })
	s.Submit(Job{Name: "j", Block: "only", CPUs: 1, MemGB: 1, Seconds: 10})
	snap, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restart(snap)
	if err != nil {
		t.Fatal(err)
	}
	if restored.migrator != nil {
		t.Error("migrator survived a checkpoint; it is runner-owned state")
	}
}

// --- checkpoint in the same tick as a fault ---

func TestCheckpointInSameTickAsJobKill(t *testing.T) {
	// A cluster checkpoint taken at exactly the simulated time a
	// JobKill fires must capture the post-kill state, and the restored
	// system must not see the kill again: the run continues exactly as
	// if never snapshotted.
	mk := func() (*System, int) {
		s := NewSystem(ResourceBlock{Name: "b", MaxCPUs: 4, MemGB: 32, Policy: FIFO})
		s.SetInjector(&fault.Plan{Events: []fault.Event{{At: 12, Kind: fault.JobKill, Unit: 0}}})
		id := s.Submit(Job{Name: "victim", Block: "b", CPUs: 4, MemGB: 4, Seconds: 40})
		return s, id
	}

	straight, _ := mk()
	wantEnd := straight.Advance()

	s, id := mk()
	s.AdvanceUntil(12) // the kill fires in this very tick
	if j := jobAt(s, id); j.Restarts != 1 {
		t.Fatalf("kill not applied before snapshot: restarts = %d", j.Restarts)
	}
	snap, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restart(snap)
	if err != nil {
		t.Fatal(err)
	}
	restored.SetInjector(&fault.Plan{Events: []fault.Event{{At: 12, Kind: fault.JobKill, Unit: 0}}})
	if _, ok := restored.nextFaultAt(); ok {
		t.Fatal("restored system would redeliver the same-tick kill")
	}
	end := restored.Advance()
	if end != wantEnd {
		t.Errorf("makespan after same-tick snapshot = %v, want %v", end, wantEnd)
	}
	j := jobAt(restored, id)
	if j.State != Done || j.Restarts != 1 {
		t.Errorf("state=%v restarts=%d, want done/1", j.State, j.Restarts)
	}
}

func TestCompletionAtFaultTimeWinsOnIdleAdvance(t *testing.T) {
	// AdvanceUntil stops exactly on a tie boundary: the completion at
	// t=10 is processed before the kill at t=10 even when the caller
	// advances precisely to t=10 (the fleet loop does this every step).
	s := NewSystem(ResourceBlock{Name: "b", MaxCPUs: 4, MemGB: 32, Policy: FIFO})
	s.SetInjector(&fault.Plan{Events: []fault.Event{{At: 10, Kind: fault.JobKill, Unit: 0}}})
	id := s.Submit(Job{Name: "j", Block: "b", CPUs: 1, MemGB: 1, Seconds: 10})
	s.AdvanceUntil(10)
	if j := jobAt(s, id); j.State != Done || j.Restarts != 0 {
		t.Errorf("state=%v restarts=%d, want done/0 (completion wins the tie)", j.State, j.Restarts)
	}
}

// --- fleet-node probes ---

func TestNextEventAtSeesCompletionsAndFaults(t *testing.T) {
	s := NewSystem(ResourceBlock{Name: "b", MaxCPUs: 4, MemGB: 32, Policy: FIFO})
	if _, ok := s.NextEventAt(); ok {
		t.Fatal("idle fault-free node advertises an event")
	}
	s.SetInjector(&fault.Plan{Events: []fault.Event{{At: 50, Kind: fault.JobKill, Unit: 0}}})
	if at, ok := s.NextEventAt(); !ok || at != 50 {
		t.Fatalf("NextEventAt = %v/%v, want 50/true (pending fault)", at, ok)
	}
	s.Submit(Job{Name: "j", Block: "b", CPUs: 1, MemGB: 1, Seconds: 10})
	if at, ok := s.NextEventAt(); !ok || at != 10 {
		t.Fatalf("NextEventAt = %v/%v, want 10/true (completion before fault)", at, ok)
	}
	s.AdvanceUntil(10)
	if at, ok := s.NextEventAt(); !ok || at != 50 {
		t.Fatalf("NextEventAt after completion = %v/%v, want 50/true", at, ok)
	}
}

func TestBacklogCountsRunningRemainderAndQueue(t *testing.T) {
	s := NewSystem(ResourceBlock{Name: "b", MaxCPUs: 2, MemGB: 32, Policy: FIFO})
	s.Submit(Job{Name: "run", Block: "b", CPUs: 2, MemGB: 1, Seconds: 10})
	s.Submit(Job{Name: "wait", Block: "b", CPUs: 2, MemGB: 1, Seconds: 7})
	if got := s.Backlog(); got != 17 {
		t.Fatalf("backlog = %v, want 17 (10 running + 7 queued)", got)
	}
	s.AdvanceUntil(4)
	if got := s.Backlog(); got != 13 {
		t.Fatalf("backlog at t=4 = %v, want 13 (6 remaining + 7 queued)", got)
	}
}
