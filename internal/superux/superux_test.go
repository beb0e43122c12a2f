package superux

import (
	"fmt"
	"strings"
	"testing"
)

// jobAt returns job id of s, panicking when s has no such job.
func jobAt(s *System, id int) Job {
	j, ok := s.Job(id)
	if !ok {
		panic(fmt.Sprintf("no job %d", id))
	}
	return j
}

// blockNamed returns s's resource block of the given name.
func blockNamed(s *System, name string) *ResourceBlock {
	return &s.blocks[blockIndex(s.blocks, name)]
}

func batchBlock(cpus int) ResourceBlock {
	return ResourceBlock{Name: "batch", MaxCPUs: cpus, MemGB: 8, Policy: FIFO}
}

func TestSingleJobRuns(t *testing.T) {
	s := NewSystem(batchBlock(32))
	id := s.Submit(Job{Name: "ccm2", Block: "batch", CPUs: 4, MemGB: 1, Seconds: 100})
	if st, _ := s.Status(id); st != Running {
		t.Fatalf("job state = %v, want running (fits immediately)", st)
	}
	end := s.Advance()
	if end != 100 {
		t.Errorf("completion at %v, want 100", end)
	}
	if st, _ := s.Status(id); st != Done {
		t.Errorf("job state = %v, want done", st)
	}
}

func TestFIFOOrdering(t *testing.T) {
	s := NewSystem(batchBlock(4))
	a := s.Submit(Job{Name: "a", Block: "batch", CPUs: 4, MemGB: 1, Seconds: 50})
	b := s.Submit(Job{Name: "b", Block: "batch", CPUs: 4, MemGB: 1, Seconds: 30})
	c := s.Submit(Job{Name: "c", Block: "batch", CPUs: 4, MemGB: 1, Seconds: 20})
	s.Advance()
	ja, jb, jc := jobAt(s, a), jobAt(s, b), jobAt(s, c)
	if !(ja.StartAt == 0 && jb.StartAt == 50 && jc.StartAt == 80) {
		t.Errorf("FIFO starts = %v, %v, %v; want 0, 50, 80", ja.StartAt, jb.StartAt, jc.StartAt)
	}
}

func TestFIFOHeadOfLineBlocks(t *testing.T) {
	// A big job at the head of a FIFO block must not be overtaken by a
	// small one behind it.
	s := NewSystem(batchBlock(4))
	s.Submit(Job{Name: "running", Block: "batch", CPUs: 3, MemGB: 1, Seconds: 100})
	big := s.Submit(Job{Name: "big", Block: "batch", CPUs: 4, MemGB: 1, Seconds: 10})
	small := s.Submit(Job{Name: "small", Block: "batch", CPUs: 1, MemGB: 1, Seconds: 10})
	if st, _ := s.Status(small); st != Queued {
		t.Fatalf("small job state = %v; FIFO must not let it overtake", st)
	}
	s.Advance()
	if jobAt(s, small).StartAt < jobAt(s, big).StartAt {
		t.Error("small job overtook the blocked head job in a FIFO block")
	}
}

func TestInteractiveBackfills(t *testing.T) {
	s := NewSystem(ResourceBlock{Name: "inter", MaxCPUs: 4, MemGB: 8, Policy: Interactive})
	s.Submit(Job{Name: "running", Block: "inter", CPUs: 3, MemGB: 1, Seconds: 100})
	s.Submit(Job{Name: "big", Block: "inter", CPUs: 4, MemGB: 1, Seconds: 10})
	small := s.Submit(Job{Name: "small", Block: "inter", CPUs: 1, MemGB: 1, Seconds: 10})
	if st, _ := s.Status(small); st != Running {
		t.Errorf("interactive block should backfill the small job; state = %v", st)
	}
}

func TestResourceLimitsEnforced(t *testing.T) {
	s := NewSystem(batchBlock(8))
	for _, f := range []func(){
		func() { s.Submit(Job{Name: "toobig", Block: "batch", CPUs: 9, MemGB: 1, Seconds: 1}) },
		func() { s.Submit(Job{Name: "toomuchmem", Block: "batch", CPUs: 1, MemGB: 99, Seconds: 1}) },
		func() { s.Submit(Job{Name: "nowhere", Block: "nope", CPUs: 1, MemGB: 1, Seconds: 1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid submission accepted")
				}
			}()
			f()
		}()
	}
}

func TestTwoBlocksIndependent(t *testing.T) {
	s := NewSystem(
		ResourceBlock{Name: "vector", MaxCPUs: 24, MemGB: 6, Policy: FIFO},
		ResourceBlock{Name: "inter", MaxCPUs: 8, MemGB: 2, Policy: Interactive},
	)
	a := s.Submit(Job{Name: "batchjob", Block: "vector", CPUs: 24, MemGB: 4, Seconds: 100})
	b := s.Submit(Job{Name: "login", Block: "inter", CPUs: 2, MemGB: 1, Seconds: 5})
	if st, _ := s.Status(a); st != Running {
		t.Error("vector job should run")
	}
	if st, _ := s.Status(b); st != Running {
		t.Error("interactive job should run concurrently in its own block")
	}
	if end := s.Advance(); end != 100 {
		t.Errorf("makespan %v, want 100", end)
	}
}

func TestPriorityOrdersQueue(t *testing.T) {
	s := NewSystem(batchBlock(4))
	s.Submit(Job{Name: "running", Block: "batch", CPUs: 4, MemGB: 1, Seconds: 10})
	low := s.Submit(Job{Name: "low", Block: "batch", CPUs: 4, MemGB: 1, Seconds: 10, Priority: 1})
	high := s.Submit(Job{Name: "high", Block: "batch", CPUs: 4, MemGB: 1, Seconds: 10, Priority: 9})
	s.Advance()
	if jobAt(s, high).StartAt >= jobAt(s, low).StartAt {
		t.Errorf("high-priority job started at %v, after low at %v",
			jobAt(s, high).StartAt, jobAt(s, low).StartAt)
	}
}

func TestComplexRunLimit(t *testing.T) {
	// Two blocks under one complex with RunLimit 1: jobs serialize
	// across the blocks even though each block has free CPUs.
	s := NewSystem(
		ResourceBlock{Name: "a", MaxCPUs: 8, MemGB: 8, Policy: FIFO},
		ResourceBlock{Name: "b", MaxCPUs: 8, MemGB: 8, Policy: FIFO},
	)
	s.AddComplex(Complex{Name: "night", Blocks: []string{"a", "b"}, RunLimit: 1})
	ja := s.Submit(Job{Name: "ja", Block: "a", CPUs: 2, MemGB: 1, Seconds: 30})
	jb := s.Submit(Job{Name: "jb", Block: "b", CPUs: 2, MemGB: 1, Seconds: 20})
	if st, _ := s.Status(ja); st != Running {
		t.Fatal("first job should run")
	}
	if st, _ := s.Status(jb); st != Queued {
		t.Fatal("complex run limit not enforced")
	}
	s.Advance()
	if jobAt(s, jb).StartAt != 30 {
		t.Errorf("second job started at %v, want 30 (after the first)", jobAt(s, jb).StartAt)
	}
}

func TestComplexUnrelatedBlockUnaffected(t *testing.T) {
	s := NewSystem(
		ResourceBlock{Name: "a", MaxCPUs: 8, MemGB: 8, Policy: FIFO},
		ResourceBlock{Name: "c", MaxCPUs: 8, MemGB: 8, Policy: FIFO},
	)
	s.AddComplex(Complex{Name: "x", Blocks: []string{"a"}, RunLimit: 1})
	s.Submit(Job{Name: "ja", Block: "a", CPUs: 2, MemGB: 1, Seconds: 30})
	jc := s.Submit(Job{Name: "jc", Block: "c", CPUs: 2, MemGB: 1, Seconds: 20})
	if st, _ := s.Status(jc); st != Running {
		t.Error("job in a block outside the complex was blocked")
	}
}

func TestComplexValidation(t *testing.T) {
	s := NewSystem(batchBlock(4))
	for _, f := range []func(){
		func() { s.AddComplex(Complex{Name: "x", Blocks: []string{"batch"}, RunLimit: 0}) },
		func() { s.AddComplex(Complex{Name: "x", Blocks: []string{"nope"}, RunLimit: 1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid complex accepted")
				}
			}()
			f()
		}()
	}
}

func TestComplexSurvivesCheckpoint(t *testing.T) {
	s := NewSystem(
		ResourceBlock{Name: "a", MaxCPUs: 8, MemGB: 8, Policy: FIFO},
		ResourceBlock{Name: "b", MaxCPUs: 8, MemGB: 8, Policy: FIFO},
	)
	s.AddComplex(Complex{Name: "night", Blocks: []string{"a", "b"}, RunLimit: 1})
	s.Submit(Job{Name: "ja", Block: "a", CPUs: 2, MemGB: 1, Seconds: 30})
	jb := s.Submit(Job{Name: "jb", Block: "b", CPUs: 2, MemGB: 1, Seconds: 20})
	data, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	r, err := Restart(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.complexes) != 1 {
		t.Fatal("complex lost in checkpoint")
	}
	r.Advance()
	if jobAt(r, jb).StartAt != 30 {
		t.Errorf("restored complex not enforced: start %v", jobAt(r, jb).StartAt)
	}
}

func TestQCat(t *testing.T) {
	s := NewSystem(batchBlock(4))
	id := s.Submit(Job{Name: "j", Block: "batch", CPUs: 1, MemGB: 1, Seconds: 10})
	out, err := s.QCat(id)
	if err != nil || !strings.Contains(out, "started") {
		t.Errorf("qcat on running job = %q, %v", out, err)
	}
	s.Advance()
	out, _ = s.QCat(id)
	if !strings.Contains(out, "finished") {
		t.Errorf("qcat after completion = %q", out)
	}
	if _, err := s.QCat(999); err == nil {
		t.Error("qcat on unknown job succeeded")
	}
}

func TestCheckpointRestartEquivalence(t *testing.T) {
	// A run that is checkpointed mid-stream and restarted must finish
	// with exactly the same schedule as an uninterrupted run.
	build := func() *System {
		s := NewSystem(batchBlock(8))
		s.Submit(Job{Name: "a", Block: "batch", CPUs: 8, MemGB: 1, Seconds: 40})
		s.Submit(Job{Name: "b", Block: "batch", CPUs: 8, MemGB: 1, Seconds: 25})
		s.Submit(Job{Name: "c", Block: "batch", CPUs: 4, MemGB: 1, Seconds: 60})
		return s
	}
	ref := build()
	refEnd := ref.Advance()

	chk := build()
	data, err := chk.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restart(data)
	if err != nil {
		t.Fatal(err)
	}
	gotEnd := restored.Advance()
	if gotEnd != refEnd {
		t.Errorf("restarted makespan = %v, want %v", gotEnd, refEnd)
	}
	if restored.NumJobs() != ref.NumJobs() {
		t.Fatalf("restarted system holds %d jobs, want %d", restored.NumJobs(), ref.NumJobs())
	}
	for id := 1; id <= ref.NumJobs(); id++ {
		rj, gj := jobAt(ref, id), jobAt(restored, id)
		if gj.StartAt != rj.StartAt || gj.FinishAt != rj.FinishAt {
			t.Errorf("job %d schedule differs after restart: %+v vs %+v", id, gj, rj)
		}
	}
}

func TestCheckpointPreservesRunning(t *testing.T) {
	s := NewSystem(batchBlock(4))
	id := s.Submit(Job{Name: "r", Block: "batch", CPUs: 4, MemGB: 1, Seconds: 30})
	data, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	r, err := Restart(data)
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := r.Status(id); st != Running {
		t.Errorf("restored job state = %v, want running", st)
	}
	if got := blockNamed(r, "batch").usedCPUs; got != 4 {
		t.Errorf("restored block usage = %d, want 4", got)
	}
	if end := r.Advance(); end != 30 {
		t.Errorf("restored completion = %v, want 30", end)
	}
}

func TestRestartRejectsGarbage(t *testing.T) {
	if _, err := Restart([]byte("not a checkpoint")); err == nil {
		t.Error("garbage checkpoint accepted")
	}
}

func TestNewSystemValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewSystem(ResourceBlock{Name: "x", MaxCPUs: 0}) },
		func() { NewSystem(ResourceBlock{Name: "x", MinCPUs: 5, MaxCPUs: 4}) },
		func() { NewSystem(batchBlock(4), batchBlock(4)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid block set accepted")
				}
			}()
			f()
		}()
	}
}

func TestMakespanEmpty(t *testing.T) {
	s := NewSystem(batchBlock(4))
	if s.Makespan() != 0 {
		t.Error("empty system has nonzero makespan")
	}
}

func TestPolicyStrings(t *testing.T) {
	if FIFO.String() != "FIFO" || Interactive.String() != "interactive" {
		t.Error("policy names wrong")
	}
	if Queued.String() != "queued" || Running.String() != "running" || Done.String() != "done" {
		t.Error("state names wrong")
	}
}
