package superux

import (
	"bytes"
	"encoding/gob"
	"testing"

	"sx4bench/internal/fault"
)

// busyHistory drives s through everything the scheduler records: a
// queue complex, FIFO and interactive blocks, priorities, a job kill,
// a CPU failure that moves one job and leaves another homeless, and a
// migrator that accepts the homeless job.
func busyHistory(s *System) {
	s.AddComplex(Complex{Name: "pair", Blocks: []string{"batch", "inter"}, RunLimit: 2})
	s.SetInjector(&fault.Plan{Events: []fault.Event{
		{At: 3, Kind: fault.JobKill, Unit: 1},
		{At: 8, Kind: fault.CPUFail, Unit: 0},
	}})
	s.SetMigrator(func(j Job) bool { return j.CPUs > 4 })
	s.Submit(Job{Name: "big", Block: "batch", CPUs: 6, MemGB: 2, Seconds: 20})
	s.Submit(Job{Name: "small", Block: "batch", CPUs: 2, MemGB: 1, Seconds: 12, Priority: 1})
	s.Submit(Job{Name: "chat", Block: "inter", CPUs: 1, MemGB: 1, Seconds: 4})
	s.AdvanceUntil(5)
	s.Submit(Job{Name: "late", Block: "inter", CPUs: 2, MemGB: 1, Seconds: 6, Priority: 2})
	s.Submit(Job{Name: "tail", Block: "batch", CPUs: 1, MemGB: 1, Seconds: 3})
	s.Advance()
}

func busyBlocks() []ResourceBlock {
	return []ResourceBlock{
		{Name: "batch", MaxCPUs: 8, MemGB: 16, Policy: FIFO},
		{Name: "inter", MaxCPUs: 4, MemGB: 8, Policy: Interactive},
	}
}

// checkpoint returns s's checkpoint bytes.
func checkpoint(t *testing.T, s *System) []byte {
	t.Helper()
	data, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCheckpointIsDeterministic pins that one state encodes to one
// byte string: repeated checkpoints of a faulted system with a complex
// and a migration are identical.
func TestCheckpointIsDeterministic(t *testing.T) {
	s := NewSystem(busyBlocks()...)
	busyHistory(s)
	want := checkpoint(t, s)
	for i := 1; i < 50; i++ {
		if got := checkpoint(t, s); !bytes.Equal(got, want) {
			t.Fatalf("checkpoint %d differs from the first (%d vs %d bytes)", i, len(got), len(want))
		}
	}
}

// TestResetMatchesNewSystem runs one history on a fresh system and on
// a system that a different history (faults, a migration, a complex,
// another block set) left dirty and Reset then cleaned: the checkpoint
// bytes and every job's qcat text must match.
func TestResetMatchesNewSystem(t *testing.T) {
	ref := NewSystem(busyBlocks()...)
	busyHistory(ref)
	if len(ref.log) == 0 || ref.faultsDelivered != 2 {
		t.Fatalf("history too tame: %d log lines, %d faults", len(ref.log), ref.faultsDelivered)
	}

	reused := NewSystem(ResourceBlock{Name: "inter", MaxCPUs: 2, MemGB: 4, Policy: FIFO},
		ResourceBlock{Name: "spare", MaxCPUs: 16, MemGB: 64, Policy: FIFO},
		ResourceBlock{Name: "batch", MaxCPUs: 3, MemGB: 4, Policy: Interactive})
	reused.AddComplex(Complex{Name: "other", Blocks: []string{"spare"}, RunLimit: 1})
	reused.SetInjector(&fault.Plan{Events: []fault.Event{{At: 1, Kind: fault.CPUFail, Unit: 2}}})
	reused.SetMigrator(func(Job) bool { return true })
	for i := 0; i < 3*jobChunk; i++ {
		reused.Submit(Job{Name: "old", Block: "spare", CPUs: 1 + i%3, MemGB: 1, Seconds: float64(1 + i%7), Priority: i % 2})
	}
	reused.Advance()
	reused.Reset(busyBlocks()...)
	if reused.NumJobs() != 0 || reused.Clock != 0 || len(reused.complexes) != 0 || len(reused.blocks) != 2 {
		t.Fatalf("Reset left %d jobs, clock %v, %d complexes, %d blocks",
			reused.NumJobs(), reused.Clock, len(reused.complexes), len(reused.blocks))
	}
	if _, ok := reused.NextEventAt(); ok {
		t.Fatal("Reset kept the old fault schedule")
	}
	busyHistory(reused)

	want := checkpoint(t, ref)
	if got := checkpoint(t, reused); !bytes.Equal(got, want) {
		t.Errorf("checkpoint after Reset differs from a fresh system's (%d vs %d bytes)", len(got), len(want))
	}
	for id := 1; id <= ref.NumJobs(); id++ {
		w, _ := ref.QCat(id)
		g, err := reused.QCat(id)
		if err != nil || g != w {
			t.Errorf("job %d qcat after Reset = %q, %v; want %q", id, g, err, w)
		}
	}
	var zero System
	zero.Reset(busyBlocks()...)
	busyHistory(&zero)
	if !bytes.Equal(checkpoint(t, &zero), want) {
		t.Error("Reset of a zero System differs from NewSystem")
	}
}

// TestJobAccessor pins Job's range checks and that it hands out a copy.
func TestJobAccessor(t *testing.T) {
	s := NewSystem(batchBlock(4))
	id := s.Submit(Job{Name: "j", Block: "batch", CPUs: 2, MemGB: 1, Seconds: 5})
	for _, bad := range []int{0, -1, s.NumJobs() + 1} {
		if j, ok := s.Job(bad); ok || j != (Job{}) {
			t.Errorf("Job(%d) = %+v, %v; want the zero job and false", bad, j, ok)
		}
	}
	j, ok := s.Job(id)
	if !ok || j.ID != id || j.Name != "j" || j.State != Running {
		t.Fatalf("Job(%d) = %+v, %v", id, j, ok)
	}
	j.State = Failed
	if again, _ := s.Job(id); again.State != Running {
		t.Error("Job returned a reference into the job table, not a copy")
	}
}

// TestRestartSortsTheQueue pins that Restart puts a queue saved out of
// order back in queue order before anything dispatches from it.
func TestRestartSortsTheQueue(t *testing.T) {
	snap := snapshot{
		Blocks: []ResourceBlock{{Name: "b", MaxCPUs: 4, MemGB: 32}},
		Jobs: []Job{
			{ID: 1, Name: "first", Block: "b", CPUs: 4, MemGB: 1, Seconds: 5, State: Queued},
			{ID: 2, Name: "second", Block: "b", CPUs: 4, MemGB: 1, Seconds: 5, State: Queued},
			{ID: 3, Name: "urgent", Block: "b", CPUs: 4, MemGB: 1, Seconds: 5, State: Queued, Priority: 1},
		},
		Queue: []int{2, 1, 3},
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&snap); err != nil {
		t.Fatal(err)
	}
	s, err := Restart(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	s.Submit(Job{Name: "kick", Block: "b", CPUs: 1, MemGB: 1, Seconds: 1})
	s.Advance()
	if a, b, c := jobAt(s, 3), jobAt(s, 1), jobAt(s, 2); !(a.StartAt < b.StartAt && b.StartAt < c.StartAt) {
		t.Errorf("restored queue ran out of order: urgent %v, first %v, second %v", a.StartAt, b.StartAt, c.StartAt)
	}
}
