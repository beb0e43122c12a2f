package superux

import (
	"testing"
	"testing/quick"

	"sx4bench/internal/fault"
)

// Property-based scheduler invariants over random job sets.

type jobSpec struct {
	CPUs    uint8
	Seconds uint8
	Prio    uint8
}

func runRandomJobs(specs []jobSpec, policy Policy) (*System, []int, float64) {
	s := NewSystem(ResourceBlock{Name: "b", MaxCPUs: 8, MemGB: 64, Policy: policy})
	var ids []int
	for _, sp := range specs {
		cpus := int(sp.CPUs)%8 + 1
		secs := float64(sp.Seconds%50) + 1
		ids = append(ids, s.Submit(Job{
			Name: "j", Block: "b", CPUs: cpus, MemGB: 1,
			Seconds: secs, Priority: int(sp.Prio % 4),
		}))
	}
	end := s.Advance()
	return s, ids, end
}

func TestQuickMakespanBounds(t *testing.T) {
	f := func(specs []jobSpec) bool {
		if len(specs) == 0 || len(specs) > 20 {
			return true
		}
		s, ids, end := runRandomJobs(specs, FIFO)
		// Lower bound: total CPU-work / capacity, and the longest job.
		var work, longest float64
		for _, id := range ids {
			j := jobAt(s, id)
			work += float64(j.CPUs) * j.Seconds
			if j.Seconds > longest {
				longest = j.Seconds
			}
		}
		if end < longest-1e-9 || end < work/8-1e-9 {
			return false
		}
		// Upper bound: fully serial execution.
		var serial float64
		for _, id := range ids {
			serial += jobAt(s, id).Seconds
		}
		return end <= serial+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickAllJobsComplete(t *testing.T) {
	f := func(specs []jobSpec) bool {
		if len(specs) > 25 {
			return true
		}
		s, ids, _ := runRandomJobs(specs, Interactive)
		for _, id := range ids {
			j := jobAt(s, id)
			if j.State != Done {
				return false
			}
			if j.FinishAt < j.StartAt || j.StartAt < j.SubmitAt {
				return false
			}
			if j.FinishAt-j.StartAt != j.Seconds {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickCapacityNeverExceeded(t *testing.T) {
	f := func(specs []jobSpec) bool {
		if len(specs) == 0 || len(specs) > 16 {
			return true
		}
		s, ids, _ := runRandomJobs(specs, FIFO)
		// Reconstruct the schedule and check CPU usage at every start
		// event.
		for _, probe := range ids {
			at := jobAt(s, probe).StartAt
			used := 0
			for _, id := range ids {
				j := jobAt(s, id)
				if j.StartAt <= at && at < j.FinishAt {
					used += j.CPUs
				}
			}
			if used > 8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickCheckpointAnywhereEquivalent(t *testing.T) {
	f := func(specs []jobSpec) bool {
		if len(specs) == 0 || len(specs) > 12 {
			return true
		}
		_, _, refEnd := runRandomJobs(specs, FIFO)
		// Same jobs, but checkpoint/restart before advancing.
		s := NewSystem(ResourceBlock{Name: "b", MaxCPUs: 8, MemGB: 64, Policy: FIFO})
		for _, sp := range specs {
			s.Submit(Job{
				Name: "j", Block: "b", CPUs: int(sp.CPUs)%8 + 1, MemGB: 1,
				Seconds: float64(sp.Seconds%50) + 1, Priority: int(sp.Prio % 4),
			})
		}
		data, err := s.Checkpoint()
		if err != nil {
			return false
		}
		restored, err := Restart(data)
		if err != nil {
			return false
		}
		return restored.Advance() == refEnd
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickCheckpointCommutesWithFaults extends the checkpoint-anywhere
// property to fault schedules: checkpointing at an arbitrary simulated
// time and restarting (with the same schedule re-attached) must land in
// exactly the state of an uninterrupted faulted run — checkpoint/restart
// commutes with fault delivery.
func TestQuickCheckpointCommutesWithFaults(t *testing.T) {
	f := func(specs []jobSpec, faultSeed int64, cut uint8) bool {
		if len(specs) == 0 || len(specs) > 12 {
			return true
		}
		plan := fault.NewPlan(faultSeed, 120, 6)
		submit := func(s *System) {
			for _, sp := range specs {
				s.Submit(Job{
					Name: "j", Block: "a", CPUs: int(sp.CPUs)%8 + 1, MemGB: 1,
					Seconds: float64(sp.Seconds%50) + 1, Priority: int(sp.Prio % 4),
				})
			}
		}
		blocks := func() []ResourceBlock {
			return []ResourceBlock{
				{Name: "a", MaxCPUs: 8, MemGB: 64, Policy: FIFO},
				{Name: "b", MaxCPUs: 8, MemGB: 64, Policy: FIFO},
			}
		}

		ref := NewSystem(blocks()...)
		ref.SetInjector(plan)
		submit(ref)
		ref.Advance()

		s := NewSystem(blocks()...)
		s.SetInjector(plan)
		submit(s)
		s.AdvanceUntil(float64(cut)) // checkpoint mid-flight, faults included
		data, err := s.Checkpoint()
		if err != nil {
			return false
		}
		restored, err := Restart(data)
		if err != nil {
			return false
		}
		restored.SetInjector(plan)
		restored.Advance()
		// The clock itself may differ when the cut lands after the last
		// completion (AdvanceUntil parks it at the cut time); the
		// observable outcome — completion times and job fates — must not.
		if restored.Makespan() != ref.Makespan() {
			return false
		}
		// Every job lands in the same terminal state with the same
		// recovery history; none is lost in either run.
		if restored.NumJobs() != ref.NumJobs() {
			return false
		}
		for id := 1; id <= ref.NumJobs(); id++ {
			rj := jobAt(ref, id)
			got, ok := restored.Job(id)
			if !ok || got.State != rj.State || got.Restarts != rj.Restarts ||
				got.FinishAt != rj.FinishAt || got.Block != rj.Block {
				return false
			}
		}
		_, _, lostRef := ref.Tally()
		_, _, lostRestored := restored.Tally()
		return lostRef == 0 && lostRestored == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
