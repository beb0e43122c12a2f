package superux

import (
	"bytes"
	"encoding/gob"
	"strings"
	"testing"

	"sx4bench/internal/fault"
)

func twoBlockSystem() *System {
	return NewSystem(
		ResourceBlock{Name: "batch", MaxCPUs: 8, MemGB: 64, Policy: FIFO},
		ResourceBlock{Name: "spare", MaxCPUs: 8, MemGB: 64, Policy: FIFO},
	)
}

func TestEmptyInjectorEquivalentToNil(t *testing.T) {
	run := func(p *fault.Plan) (float64, string) {
		s := NewSystem(ResourceBlock{Name: "b", MaxCPUs: 4, MemGB: 32, Policy: FIFO})
		s.SetInjector(p)
		id := s.Submit(Job{Name: "j", Block: "b", CPUs: 2, MemGB: 1, Seconds: 10})
		end := s.Advance()
		out, _ := s.QCat(id)
		return end, out
	}
	nilEnd, nilOut := run(nil)
	emptyEnd, emptyOut := run(&fault.Plan{})
	if nilEnd != emptyEnd || nilOut != emptyOut {
		t.Errorf("empty plan diverged from nil plan: %v/%q vs %v/%q", emptyEnd, emptyOut, nilEnd, nilOut)
	}
}

func TestCPUFailRecoversOntoSurvivingBlock(t *testing.T) {
	s := twoBlockSystem()
	s.SetInjector(&fault.Plan{Events: []fault.Event{{At: 10, Kind: fault.CPUFail, Unit: 0}}})
	id := s.Submit(Job{Name: "long", Block: "batch", CPUs: 4, MemGB: 8, Seconds: 30})
	end := s.Advance()

	j := jobAt(s, id)
	if j.State != Done {
		t.Fatalf("job state = %v, want done", j.State)
	}
	if j.Block != "spare" {
		t.Errorf("job recovered on block %q, want spare", j.Block)
	}
	if j.Restarts != 1 {
		t.Errorf("restarts = %d, want 1", j.Restarts)
	}
	// 10s done before the fault, 30s rerun from checkpoint remaining
	// (20s) plus the restart overhead.
	want := 10 + 20 + RestartOverheadSeconds
	if end != want {
		t.Errorf("makespan = %v, want %v", end, want)
	}
	if !blockNamed(s, "batch").Failed {
		t.Error("failed block not marked")
	}
	rec, failed, lost := s.Tally()
	if rec != 1 || failed != 0 || lost != 0 {
		t.Errorf("tally = (%d,%d,%d), want (1,0,0)", rec, failed, lost)
	}
	out, _ := s.QCat(id)
	for _, frag := range []string{"checkpointed", "moved to block spare", "finished"} {
		if !strings.Contains(out, frag) {
			t.Errorf("qcat output missing %q:\n%s", frag, out)
		}
	}
}

func TestCPUFailLastBlockReportsFailedNeverLost(t *testing.T) {
	s := NewSystem(ResourceBlock{Name: "only", MaxCPUs: 8, MemGB: 64, Policy: FIFO})
	s.SetInjector(&fault.Plan{Events: []fault.Event{{At: 5, Kind: fault.CPUFail, Unit: 3}}})
	run := s.Submit(Job{Name: "run", Block: "only", CPUs: 8, MemGB: 8, Seconds: 20})
	wait := s.Submit(Job{Name: "wait", Block: "only", CPUs: 8, MemGB: 8, Seconds: 20})
	s.Advance()
	for _, id := range []int{run, wait} {
		if got := jobAt(s, id).State; got != Failed {
			t.Errorf("job %d state = %v, want failed", id, got)
		}
	}
	rec, failed, lost := s.Tally()
	if rec != 0 || failed != 2 || lost != 0 {
		t.Errorf("tally = (%d,%d,%d), want (0,2,0)", rec, failed, lost)
	}
	// Submissions after the machine is gone are reported failed too.
	late := s.Submit(Job{Name: "late", Block: "only", CPUs: 1, MemGB: 1, Seconds: 1})
	if got := jobAt(s, late).State; got != Failed {
		t.Errorf("late submission state = %v, want failed", got)
	}
}

func TestJobKillCheckpointsAndRestarts(t *testing.T) {
	s := NewSystem(ResourceBlock{Name: "b", MaxCPUs: 4, MemGB: 32, Policy: FIFO})
	s.SetInjector(&fault.Plan{Events: []fault.Event{{At: 12, Kind: fault.JobKill, Unit: 0}}})
	id := s.Submit(Job{Name: "victim", Block: "b", CPUs: 4, MemGB: 4, Seconds: 40})
	end := s.Advance()
	j := jobAt(s, id)
	if j.State != Done || j.Restarts != 1 {
		t.Fatalf("state=%v restarts=%d, want done/1", j.State, j.Restarts)
	}
	want := 12 + 28 + RestartOverheadSeconds
	if end != want {
		t.Errorf("makespan = %v, want %v", end, want)
	}
}

func TestJobKillWithNothingRunningIsNoop(t *testing.T) {
	s := NewSystem(ResourceBlock{Name: "b", MaxCPUs: 4, MemGB: 32, Policy: FIFO})
	s.SetInjector(&fault.Plan{Events: []fault.Event{{At: 1, Kind: fault.JobKill, Unit: 2}}})
	s.AdvanceUntil(5)
	if s.Clock != 5 {
		t.Errorf("clock = %v, want 5", s.Clock)
	}
	// The event was consumed, not left pending.
	if _, ok := s.nextFaultAt(); ok {
		t.Error("no-op kill left the event pending")
	}
}

func TestCompletionWinsTieWithFault(t *testing.T) {
	// Job finishes at exactly t=10; a kill lands at t=10. The
	// completion is processed first, so the kill finds nothing to kill.
	s := NewSystem(ResourceBlock{Name: "b", MaxCPUs: 4, MemGB: 32, Policy: FIFO})
	s.SetInjector(&fault.Plan{Events: []fault.Event{{At: 10, Kind: fault.JobKill, Unit: 0}}})
	id := s.Submit(Job{Name: "j", Block: "b", CPUs: 1, MemGB: 1, Seconds: 10})
	end := s.Advance()
	if j := jobAt(s, id); j.State != Done || j.Restarts != 0 {
		t.Errorf("state=%v restarts=%d, want done/0 (completion wins the tie)", j.State, j.Restarts)
	}
	if end != 10 {
		t.Errorf("makespan = %v, want 10", end)
	}
}

func TestMachineLevelFaultsDoNotTouchScheduler(t *testing.T) {
	mk := func(p *fault.Plan) float64 {
		s := twoBlockSystem()
		s.SetInjector(p)
		s.Submit(Job{Name: "a", Block: "batch", CPUs: 4, MemGB: 4, Seconds: 25})
		s.Submit(Job{Name: "b", Block: "spare", CPUs: 4, MemGB: 4, Seconds: 15})
		return s.Advance()
	}
	healthy := mk(nil)
	degradeOnly := mk(&fault.Plan{Events: []fault.Event{
		{At: 3, Kind: fault.BankDegrade, Unit: 1},
		{At: 7, Kind: fault.IOPStall, Unit: 2},
	}})
	if healthy != degradeOnly {
		t.Errorf("bank/IOP events changed the schedule: %v vs %v", degradeOnly, healthy)
	}
}

func TestAdvanceUntilDeliversIdleFaults(t *testing.T) {
	s := twoBlockSystem()
	s.SetInjector(&fault.Plan{Events: []fault.Event{{At: 50, Kind: fault.CPUFail, Unit: 0}}})
	s.AdvanceUntil(100)
	if s.Clock != 100 {
		t.Errorf("clock = %v, want 100", s.Clock)
	}
	if !blockNamed(s, "batch").Failed {
		t.Error("idle CPU failure not delivered by AdvanceUntil")
	}
	// A job submitted afterwards lands on the survivor.
	id := s.Submit(Job{Name: "j", Block: "batch", CPUs: 2, MemGB: 1, Seconds: 5})
	s.Advance()
	if j := jobAt(s, id); j.State != Done || j.Block != "spare" {
		t.Errorf("post-fault submission: state=%v block=%q, want done on spare", j.State, j.Block)
	}
}

func TestCheckpointDoesNotRedeliverFaults(t *testing.T) {
	plan := &fault.Plan{Events: []fault.Event{
		{At: 10, Kind: fault.JobKill, Unit: 0},
		{At: 60, Kind: fault.JobKill, Unit: 0},
	}}
	s := NewSystem(ResourceBlock{Name: "b", MaxCPUs: 4, MemGB: 32, Policy: FIFO})
	s.SetInjector(plan)
	id := s.Submit(Job{Name: "j", Block: "b", CPUs: 2, MemGB: 1, Seconds: 30})
	s.AdvanceUntil(20) // first kill delivered, job restarted
	data, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restart(data)
	if err != nil {
		t.Fatal(err)
	}
	restored.SetInjector(plan)
	restored.Advance()
	if j := jobAt(restored, id); j.Restarts != 1 {
		t.Errorf("restarts after checkpoint/restart = %d, want 1 (first kill must not redeliver)", j.Restarts)
	}
}

func TestRestartRejectsCorruptSnapshots(t *testing.T) {
	base := func() snapshot {
		return snapshot{
			Blocks:         []ResourceBlock{{Name: "b", MaxCPUs: 4, MemGB: 32}},
			QueueComplexes: []Complex{{Name: "c", Blocks: []string{"b"}, RunLimit: 1}},
			Jobs:           []Job{{ID: 1, Name: "j", Block: "b", CPUs: 2, MemGB: 1, Seconds: 5, State: Queued}},
			Clock:          10,
			Queue:          []int{1},
		}
	}
	encode := func(t *testing.T, snap snapshot) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&snap); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	second := Job{ID: 2, Name: "k", Block: "b", CPUs: 1, MemGB: 1, Seconds: 1}

	if _, err := Restart(encode(t, base())); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}
	for _, tc := range []struct {
		name    string
		corrupt func(*snapshot)
		wantErr string
	}{
		{"negative clock", func(s *snapshot) { s.Clock = -1 }, "clock"},
		{"negative fault count", func(s *snapshot) { s.FaultsDelivered = -1 }, "fault count"},
		{"unknown job state", func(s *snapshot) { s.Jobs[0].State = Failed + 3 }, "unknown state"},
		{"undefined resource block", func(s *snapshot) { s.Jobs[0].Block = "ghost" }, "undefined resource block"},
		{"job above the block's CPUs", func(s *snapshot) { s.Jobs[0].CPUs = 9 }, "allows up to 4"},
		{"job with no CPUs", func(s *snapshot) { s.Jobs[0].CPUs = -2 }, "requests -2 CPUs"},
		{"job above the block's memory", func(s *snapshot) { s.Jobs[0].MemGB = 99 }, "memory"},
		{"queued ghost job", func(s *snapshot) { s.Queue = []int{99} }, "does not exist"},
		{"active ghost job", func(s *snapshot) { s.Active = []int{42} }, "does not exist"},
		{"log names ghost job", func(s *snapshot) {
			s.Log = []logEntry{{Job: 7, Kind: logFailed, Clock: 3}}
		}, "does not exist"},
		{"job id above the counter", func(s *snapshot) { s.Jobs[0].ID = 2 }, "stored as job 1"},
		{"job id zero", func(s *snapshot) { s.Jobs[0].ID = 0 }, "stored as job 1"},
		{"job stored under another id", func(s *snapshot) { s.Jobs = append(s.Jobs, s.Jobs[0]) }, "job 1 is stored as job 2"},
		{"job out of id order", func(s *snapshot) { s.Jobs = []Job{second, s.Jobs[0]} }, "job 2 is stored as job 1"},
		{"block with bad CPU limits", func(s *snapshot) { s.Blocks[0].MaxCPUs = 0 }, "bad CPU limits"},
		{"block defined twice", func(s *snapshot) {
			s.Blocks = append(s.Blocks, ResourceBlock{Name: "b", MaxCPUs: 2, MemGB: 8})
		}, "duplicate block"},
		{"complex run limit 0", func(s *snapshot) { s.QueueComplexes[0].RunLimit = 0 }, "positive run limit"},
		{"complex naming an undefined block", func(s *snapshot) {
			s.QueueComplexes[0].Blocks = []string{"b", "ghost"}
		}, "unknown block"},
		{"job queued twice", func(s *snapshot) { s.Queue = []int{1, 1} }, "twice"},
		{"job queued and active", func(s *snapshot) { s.Active = []int{1} }, "twice"},
		{"log entry of unknown kind", func(s *snapshot) {
			s.Log = []logEntry{{Job: 1, Kind: logFailed + 1, Clock: 3}}
		}, "unknown kind"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			snap := base()
			tc.corrupt(&snap)
			_, err := Restart(encode(t, snap))
			if err == nil {
				t.Fatal("corrupt snapshot round-tripped silently")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
	if _, err := Restart([]byte("not a gob stream")); err == nil {
		t.Error("garbage bytes accepted")
	}
}
