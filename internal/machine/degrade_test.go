package machine

import (
	"errors"
	"testing"

	"sx4bench/internal/fault"
	"sx4bench/internal/sx4"
	"sx4bench/internal/sx4/prog"
	"sx4bench/internal/target"
)

func degradeTrace() prog.Program {
	return prog.Simple("degrade-probe", 200,
		prog.Op{Class: prog.VLoad, VL: 4096, Stride: 1},
		prog.Op{Class: prog.VMul, VL: 4096},
		prog.Op{Class: prog.VStore, VL: 4096, Stride: 1},
	)
}

func TestEveryRegisteredTargetDegrades(t *testing.T) {
	for _, name := range target.All() {
		tgt := target.MustLookup(name)
		if _, ok := tgt.(target.Degrader); !ok {
			t.Errorf("%s does not implement target.Degrader", name)
			continue
		}
		// Zero degradation is the identity for every target.
		same, err := target.Degrade(tgt, fault.Degradation{})
		if err != nil || same != tgt {
			t.Errorf("%s: zero degradation = (%v, %v), want identity", name, same, err)
		}
	}
}

func TestVectorDegradedKeepsScalarProfile(t *testing.T) {
	v := CrayC90()
	dt, err := v.Degraded(fault.Degradation{CPUsLost: 4, BankHalvings: 1})
	if err != nil {
		t.Fatal(err)
	}
	dv, ok := dt.(*Vector)
	if !ok {
		t.Fatalf("degraded Cray is %T, want *Vector", dt)
	}
	if dv.Scalar() != v.Scalar() {
		t.Error("degradation changed the scalar profile")
	}
	if dv.Config().CPUs != v.Config().CPUs-4 {
		t.Errorf("degraded CPUs = %d, want %d", dv.Config().CPUs, v.Config().CPUs-4)
	}
	if dv.Fingerprint() == v.Fingerprint() {
		t.Error("degraded Cray fingerprints identically to healthy")
	}
}

func TestVectorDegradedDown(t *testing.T) {
	v := CrayYMP()
	_, err := v.Degraded(fault.Degradation{CPUsLost: v.Config().CPUs})
	if !errors.Is(err, target.ErrMachineDown) {
		t.Errorf("err = %v, want ErrMachineDown", err)
	}
}

func TestWorkstationDegraded(t *testing.T) {
	w := IBMRS6000590()
	dt, err := w.Degraded(fault.Degradation{BankHalvings: 1, PortHalvings: 1})
	if err != nil {
		t.Fatal(err)
	}
	dw := dt.(*Workstation)
	if dw.params.MemWordsPerClock != w.params.MemWordsPerClock/2 {
		t.Errorf("degraded memory bandwidth = %v, want %v", dw.params.MemWordsPerClock, w.params.MemWordsPerClock/2)
	}
	if dw.params.CacheWordsPerClock != w.params.CacheWordsPerClock/2 {
		t.Errorf("degraded cache bandwidth = %v, want %v", dw.params.CacheWordsPerClock, w.params.CacheWordsPerClock/2)
	}
	if dw.Fingerprint() == w.Fingerprint() {
		t.Error("degraded workstation fingerprints identically to healthy")
	}
	opts := sx4.RunOpts{Procs: 1}
	healthy := w.Run(degradeTrace(), opts).Seconds
	degraded := dw.Run(degradeTrace(), opts).Seconds
	if degraded <= healthy {
		t.Errorf("degraded workstation not slower: healthy %gs, degraded %gs", healthy, degraded)
	}
}

func TestWorkstationCPULossIsFatal(t *testing.T) {
	w := SunSparc20()
	_, err := w.Degraded(fault.Degradation{CPUsLost: 1})
	if !errors.Is(err, target.ErrMachineDown) {
		t.Errorf("err = %v, want ErrMachineDown", err)
	}
}

// TestRegistryDegradedNeverFaster is the cross-machine degraded-time
// >= healthy-time property from the issue, over the whole registry.
func TestRegistryDegradedNeverFaster(t *testing.T) {
	d := fault.Degradation{BankHalvings: 1, PortHalvings: 1}
	for _, name := range target.All() {
		tgt := target.MustLookup(name)
		dt, err := target.Degrade(tgt, d)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		opts := sx4.RunOpts{Procs: tgt.Spec().CPUs}
		healthy := tgt.Run(degradeTrace(), opts).Seconds
		degraded := dt.Run(degradeTrace(), opts).Seconds
		if degraded < healthy {
			t.Errorf("%s: degraded %gs faster than healthy %gs", name, degraded, healthy)
		}
	}
}
