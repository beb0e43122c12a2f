package sx4

import (
	"fmt"

	"sx4bench/internal/fault"
	"sx4bench/internal/target"
)

// Machine implements target.Degrader: the SX-4's node-level
// reconfiguration story. SUPER-UX configures failed components out and
// the node keeps running in a degraded mode; the model expresses that
// as a fresh machine with a reduced configuration.
var _ target.Degrader = (*Machine)(nil)

// Degraded returns a fresh machine reconfigured around the failed
// components:
//
//   - each lost CPU shrinks the node's processor count;
//   - each bank halving configures out half of the working memory
//     banks (and the node bandwidth behind them);
//   - each port halving halves the per-CPU crossbar port width;
//   - each stalled IOP is removed from the I/O subsystem.
//
// The result has its own configuration fingerprint and a cold cache,
// so nothing can serve healthy timings for degraded runs, and it is
// never faster than the original on any trace (fewer resources, same
// work).
// A degradation that leaves no surviving CPU returns an error wrapping
// target.ErrMachineDown.
func (m *Machine) Degraded(d fault.Degradation) (target.Target, error) {
	cfg, err := degradedConfig(m.cfg, d)
	if err != nil {
		return nil, err
	}
	return New(cfg), nil
}

// degradedConfig applies a degradation to a configuration; shared with
// the Cray comparator models in internal/machine.
func degradedConfig(cfg Config, d Degradation) (Config, error) {
	if d.CPUsLost >= cfg.CPUs {
		return Config{}, fmt.Errorf("sx4: %s: %d of %d CPUs failed: %w",
			cfg.Name, d.CPUsLost, cfg.CPUs, target.ErrMachineDown)
	}
	cfg.CPUs -= d.CPUsLost
	for i := 0; i < d.BankHalvings; i++ {
		cfg.MemoryBanks = halved(cfg.MemoryBanks)
		cfg.NodeWordsPerClock = halved(cfg.NodeWordsPerClock)
	}
	for i := 0; i < d.PortHalvings; i++ {
		cfg.PortWordsPerClock = halved(cfg.PortWordsPerClock)
	}
	if d.IOPsStalled > 0 {
		cfg.IOPs -= d.IOPsStalled
		if cfg.IOPs < 1 {
			cfg.IOPs = 1
		}
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, fmt.Errorf("sx4: degraded configuration invalid: %w", err)
	}
	return cfg, nil
}

// Degradation is the machine-level fault impact (see internal/fault);
// the alias keeps model-layer signatures free of a second import.
type Degradation = fault.Degradation

func halved(n int) int {
	if n <= 1 {
		return 1
	}
	return n / 2
}
