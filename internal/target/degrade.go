package target

import (
	"errors"
	"fmt"

	"sx4bench/internal/fault"
)

// ErrMachineDown reports that a fault schedule left a target with no
// surviving processors: there is no degraded mode to run in. Model
// Degraded implementations wrap it; runners test with errors.Is.
var ErrMachineDown = errors.New("no surviving CPUs")

// Degrader is the optional graceful-degradation interface: a target
// that can derive a copy of itself operating under a fault-induced
// Degradation — fewer CPUs, half the memory banks, a slowed crossbar
// port — implements it. The degraded copy is a fresh Target with its
// own configuration fingerprint (so cached healthy results can never
// be served for degraded runs) and must be at least as slow as the
// original on every trace: degradation never speeds a machine up.
type Degrader interface {
	Degraded(d fault.Degradation) (Target, error)
}

// Degrade applies a degradation to a target. A zero degradation
// returns the target itself (the fault-free identity, byte-exact); a
// non-zero one requires the target to implement Degrader. A
// degradation that leaves no surviving CPU returns an error wrapping
// ErrMachineDown.
func Degrade(t Target, d fault.Degradation) (Target, error) {
	if d.IsZero() {
		return t, nil
	}
	dg, ok := t.(Degrader)
	if !ok {
		return nil, fmt.Errorf("target: %s models no degraded mode", t.Name())
	}
	return dg.Degraded(d)
}
