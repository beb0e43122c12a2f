package machine

import (
	"fmt"

	"sx4bench/internal/fault"
	"sx4bench/internal/sx4"
	"sx4bench/internal/target"
)

var (
	_ target.Degrader = (*Vector)(nil)
	_ target.Degrader = (*Workstation)(nil)
)

// Degraded reconfigures the Cray model around the failed components by
// delegating to the embedded sx4 engine, preserving the scalar profile.
// (The promoted sx4.Machine Degraded would drop it, like Clone.)
func (v *Vector) Degraded(d fault.Degradation) (target.Target, error) {
	t, err := v.Machine.Degraded(d)
	if err != nil {
		return nil, err
	}
	return &Vector{Machine: t.(*sx4.Machine), scalar: v.scalar}, nil
}

// Degraded derives a workstation operating under the given fault
// impact. Workstations are uniprocessors, so any CPU loss takes the
// whole machine down; bank and port degradations slow the memory and
// cache paths. The copy starts with cold caches and a parameter set
// that fingerprints differently from the healthy machine.
func (w *Workstation) Degraded(d fault.Degradation) (target.Target, error) {
	if d.CPUsLost > 0 {
		return nil, fmt.Errorf("machine: %s: uniprocessor CPU failed: %w",
			w.params.ModelName, target.ErrMachineDown)
	}
	p := w.params
	for i := 0; i < d.BankHalvings; i++ {
		p.MemWordsPerClock /= 2
	}
	for i := 0; i < d.PortHalvings; i++ {
		p.CacheWordsPerClock /= 2
	}
	// IOP stalls do not affect the workstation compute model (no I/O
	// subsystem is modeled; the disk-dependent rows are gated off).
	return NewWorkstation(p), nil
}
