package target

import (
	"errors"

	"sx4bench/internal/fault"
)

// ErrMachineDown reports that a fault schedule left a target with no
// surviving processors: there is no degraded mode to run in. Model
// Degraded implementations wrap it; runners test with errors.Is.
var ErrMachineDown = errors.New("no surviving CPUs")

// Degrade applies a degradation to a target. A zero degradation
// returns the target itself (the fault-free identity, byte-exact);
// any other is the target's own Degraded.
func Degrade(t Target, d fault.Degradation) (Target, error) {
	if d.IsZero() {
		return t, nil
	}
	return t.Degraded(d)
}
