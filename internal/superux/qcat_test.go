package superux

import (
	"testing"

	"sx4bench/internal/fault"
)

// TestQCatText pins qcat's exact bytes for every line kind a job can
// produce — started, finished, checkpointed, moved, migrated and
// failed — across the histories that produce them, including a
// checkpoint/restart taken mid-history.
func TestQCatText(t *testing.T) {
	oneBlock := func(events ...fault.Event) *System {
		s := NewSystem(ResourceBlock{Name: "only", MaxCPUs: 8, MemGB: 64, Policy: FIFO})
		s.SetInjector(&fault.Plan{Events: events})
		return s
	}
	twoBlocks := func(events ...fault.Event) *System {
		s := twoBlockSystem()
		s.SetInjector(&fault.Plan{Events: events})
		return s
	}
	restarted := func(t *testing.T, s *System) *System {
		t.Helper()
		data, err := s.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		r, err := Restart(data)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	killThenFail := []fault.Event{
		{At: 10, Kind: fault.JobKill, Unit: 0},
		{At: 20, Kind: fault.CPUFail, Unit: 0},
	}

	for _, tc := range []struct {
		name string
		run  func(t *testing.T) (*System, int)
		want string
	}{
		{"clean", func(t *testing.T) (*System, int) {
			s := oneBlock()
			id := s.Submit(Job{Name: "clean", Block: "only", CPUs: 2, MemGB: 1, Seconds: 10})
			s.Advance()
			return s, id
		}, "job 1 (clean) started at 0.00\n" +
			"job 1 (clean) finished at 10.00\n"},
		{"running", func(t *testing.T) (*System, int) {
			s := oneBlock()
			id := s.Submit(Job{Name: "busy", Block: "only", CPUs: 2, MemGB: 1, Seconds: 10})
			s.AdvanceUntil(4)
			return s, id
		}, "job 1 (busy) started at 0.00\n"},
		{"queued", func(t *testing.T) (*System, int) {
			s := oneBlock()
			s.Submit(Job{Name: "hog", Block: "only", CPUs: 8, MemGB: 1, Seconds: 10})
			id := s.Submit(Job{Name: "waiting", Block: "only", CPUs: 8, MemGB: 1, Seconds: 10})
			return s, id
		}, ""},
		{"job kill restart", func(t *testing.T) (*System, int) {
			s := oneBlock(fault.Event{At: 12, Kind: fault.JobKill, Unit: 0})
			id := s.Submit(Job{Name: "victim", Block: "only", CPUs: 4, MemGB: 4, Seconds: 40})
			s.Advance()
			return s, id
		}, "job 1 (victim) started at 0.00\n" +
			"job 1 (victim) checkpointed at 12.00 (28.00s remaining)\n" +
			"job 1 (victim) started at 12.00\n" +
			"job 1 (victim) finished at 45.00\n"},
		{"cpu fail moves to surviving block", func(t *testing.T) (*System, int) {
			s := twoBlocks(fault.Event{At: 10, Kind: fault.CPUFail, Unit: 0})
			s.Submit(Job{Name: "other", Block: "spare", CPUs: 2, MemGB: 1, Seconds: 3})
			id := s.Submit(Job{Name: "long", Block: "batch", CPUs: 4, MemGB: 8, Seconds: 30})
			s.Advance()
			return s, id
		}, "job 2 (long) started at 0.00\n" +
			"job 2 (long) checkpointed at 10.00 (20.00s remaining)\n" +
			"job 2 (long) moved to block spare at 10.00\n" +
			"job 2 (long) started at 10.00\n" +
			"job 2 (long) finished at 35.00\n"},
		{"queued job moved", func(t *testing.T) (*System, int) {
			s := twoBlocks(fault.Event{At: 10, Kind: fault.CPUFail, Unit: 0})
			s.Submit(Job{Name: "head", Block: "batch", CPUs: 8, MemGB: 8, Seconds: 30})
			id := s.Submit(Job{Name: "tail", Block: "batch", CPUs: 8, MemGB: 8, Seconds: 6})
			s.Advance()
			return s, id
		}, "job 2 (tail) moved to block spare at 10.00\n" +
			"job 2 (tail) started at 35.00\n" +
			"job 2 (tail) finished at 41.00\n"},
		{"migrator accepts", func(t *testing.T) (*System, int) {
			s := oneBlock(fault.Event{At: 10, Kind: fault.CPUFail, Unit: 0})
			s.SetMigrator(func(Job) bool { return true })
			id := s.Submit(Job{Name: "movable", Block: "only", CPUs: 4, MemGB: 8, Seconds: 30})
			s.Advance()
			return s, id
		}, "job 1 (movable) started at 0.00\n" +
			"job 1 (movable) checkpointed at 10.00 (20.00s remaining)\n" +
			"job 1 (movable) migrated off node at 10.00: no surviving resource block here\n"},
		{"no block survives, running", func(t *testing.T) (*System, int) {
			s := oneBlock(fault.Event{At: 5, Kind: fault.CPUFail, Unit: 3})
			id := s.Submit(Job{Name: "run", Block: "only", CPUs: 8, MemGB: 8, Seconds: 20})
			s.Submit(Job{Name: "wait", Block: "only", CPUs: 8, MemGB: 8, Seconds: 20})
			s.Advance()
			return s, id
		}, "job 1 (run) started at 0.00\n" +
			"job 1 (run) checkpointed at 5.00 (15.00s remaining)\n" +
			"job 1 (run) failed at 5.00: no surviving resource block\n"},
		{"no block survives, queued", func(t *testing.T) (*System, int) {
			s := oneBlock(fault.Event{At: 5, Kind: fault.CPUFail, Unit: 3})
			s.Submit(Job{Name: "run", Block: "only", CPUs: 8, MemGB: 8, Seconds: 20})
			id := s.Submit(Job{Name: "wait", Block: "only", CPUs: 8, MemGB: 8, Seconds: 20})
			s.Advance()
			return s, id
		}, "job 2 (wait) failed at 5.00: no surviving resource block\n"},
		{"submitted to a downed block", func(t *testing.T) (*System, int) {
			s := twoBlocks(fault.Event{At: 50, Kind: fault.CPUFail, Unit: 0})
			s.AdvanceUntil(100)
			id := s.Submit(Job{Name: "late", Block: "batch", CPUs: 2, MemGB: 1, Seconds: 5})
			s.Advance()
			return s, id
		}, "job 1 (late) started at 100.00\n" +
			"job 1 (late) finished at 105.00\n"},
		{"submitted to a down node", func(t *testing.T) (*System, int) {
			s := oneBlock(fault.Event{At: 50, Kind: fault.CPUFail, Unit: 0})
			s.AdvanceUntil(100)
			id := s.Submit(Job{Name: "late", Block: "only", CPUs: 2, MemGB: 1, Seconds: 5})
			return s, id
		}, "job 1 (late) failed at 100.00: no surviving resource block\n"},
		{"restart mid-history", func(t *testing.T) (*System, int) {
			s := twoBlocks(killThenFail...)
			id := s.Submit(Job{Name: "saga", Block: "batch", CPUs: 4, MemGB: 8, Seconds: 30})
			s.AdvanceUntil(15)
			return restarted(t, s), id
		}, "job 1 (saga) started at 0.00\n" +
			"job 1 (saga) checkpointed at 10.00 (20.00s remaining)\n" +
			"job 1 (saga) started at 10.00\n"},
		{"restart then advance", func(t *testing.T) (*System, int) {
			s := twoBlocks(killThenFail...)
			id := s.Submit(Job{Name: "saga", Block: "batch", CPUs: 4, MemGB: 8, Seconds: 30})
			s.AdvanceUntil(15)
			r := restarted(t, s)
			r.SetInjector(&fault.Plan{Events: killThenFail})
			r.Advance()
			return r, id
		}, "job 1 (saga) started at 0.00\n" +
			"job 1 (saga) checkpointed at 10.00 (20.00s remaining)\n" +
			"job 1 (saga) started at 10.00\n" +
			"job 1 (saga) checkpointed at 20.00 (15.00s remaining)\n" +
			"job 1 (saga) moved to block spare at 20.00\n" +
			"job 1 (saga) started at 20.00\n" +
			"job 1 (saga) finished at 40.00\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, id := tc.run(t)
			got, err := s.QCat(id)
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Errorf("qcat %d =\n%s\nwant\n%s", id, got, tc.want)
			}
		})
	}
}
