package ncar

import (
	"errors"
	"fmt"
	"math"

	"sx4bench/internal/core"
	"sx4bench/internal/fault"
	"sx4bench/internal/superux"
	"sx4bench/internal/target"
)

// ResilienceMachines are the registry names the resilience artifact
// sweeps: both SX-4 configurations plus the C90, the strongest
// comparison machine — enough to show the same canonical fault
// schedule taking a uniprocessor down, a 32-CPU node degrading
// gracefully, and the makespan cost varying with machine speed.
var ResilienceMachines = []string{"sx4-1", "sx4-32", "c90"}

// resilienceWorks is the fixed batch workload (MFLOP of work per job)
// behind the makespan columns; CPU requests vary so the schedule
// exercises both resource blocks.
var resilienceWorks = []struct {
	work float64 // MFLOP
	cpus int
}{
	{20000, 4}, {35000, 8}, {15000, 2}, {50000, 8},
	{25000, 4}, {40000, 6}, {10000, 2}, {30000, 4},
}

// resilienceSystem builds the two-block SUPER-UX instance the
// resilience workload runs on.
func resilienceSystem() *superux.System {
	return superux.NewSystem(
		superux.ResourceBlock{Name: "batch", MaxCPUs: 8, MemGB: 64, Policy: superux.FIFO},
		superux.ResourceBlock{Name: "backup", MaxCPUs: 8, MemGB: 64, Policy: superux.FIFO},
	)
}

// resilienceMakespan runs the fixed workload at the machine's RADABS
// rate under the given schedule and reports the accounting.
func resilienceMakespan(mflops float64, plan *fault.Plan) (makespan float64, recovered, failed, lost int) {
	s := resilienceSystem()
	s.SetInjector(plan)
	for _, j := range resilienceWorks {
		s.Submit(superux.Job{
			Name: "work", Block: "batch", CPUs: j.cpus, MemGB: 4,
			Seconds: j.work / mflops,
		})
	}
	makespan = s.Advance()
	recovered, failed, lost = s.Tally()
	return makespan, recovered, failed, lost
}

// ResilienceTable reports, per machine, the graceful-degradation and
// recovery behaviour under a fault schedule: the RADABS rate healthy
// and in the schedule's end-state degraded mode, and the SUPER-UX
// makespan of a fixed batch workload fault-free versus faulted, with
// the recovered/failed/lost job accounting. A machine the schedule
// leaves with no surviving CPU reads "down". With a nil plan the
// faulted columns equal the healthy ones — the fault-free identity.
func ResilienceTable(plan *fault.Plan) (core.Table, error) {
	t := core.Table{
		ID:    "resilience",
		Title: "Resilience under the canonical fault schedule (RADABS MFLOPS, fixed batch workload)",
		Headers: []string{
			"Machine", "MFLOPS", "MFLOPS degr", "Slowdown",
			"Makespan s", "Faulted s", "Recovered", "Failed", "Lost",
		},
	}
	end := plan.DegradationAt(math.Inf(1))
	for _, name := range ResilienceMachines {
		tgt, err := target.Shared(name)
		if err != nil {
			return core.Table{}, fmt.Errorf("ncar: resilience sweep: %w", err)
		}
		healthy := RADABSMFlops(tgt)
		healthyMakespan, _, _, _ := resilienceMakespan(healthy, nil)
		faultedMakespan, recovered, failed, lost := resilienceMakespan(healthy, plan)

		degradedCell, slowdownCell := "down", "down"
		dt, err := target.Degrade(tgt, end)
		switch {
		case errors.Is(err, target.ErrMachineDown):
			// The schedule killed the machine's last CPU; the degraded
			// columns read "down" rather than a rate.
		case err != nil:
			return core.Table{}, fmt.Errorf("ncar: resilience sweep: %s: %w", name, err)
		default:
			degraded := RADABSMFlops(dt)
			degradedCell = core.Fixed(degraded, 1)
			slowdownCell = core.Fixed(healthy/degraded, 2) + "x"
		}
		t.Rows = append(t.Rows, []string{
			tgt.Name(),
			core.Fixed(healthy, 1),
			degradedCell,
			slowdownCell,
			core.Fixed(healthyMakespan, 2),
			core.Fixed(faultedMakespan, 2),
			fmt.Sprintf("%d", recovered),
			fmt.Sprintf("%d", failed),
			fmt.Sprintf("%d", lost),
		})
	}
	return t, nil
}
