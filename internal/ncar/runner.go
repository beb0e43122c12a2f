package ncar

import (
	"fmt"
	"io"

	"sx4bench/internal/ccm2"
	"sx4bench/internal/core"
	"sx4bench/internal/mom"
	"sx4bench/internal/prodload"
	"sx4bench/internal/target"
)

// RunBenchmark executes one suite member by name against the target
// machine and writes its results: the library-side implementation of
// the ncarbench command. cpus <= 0 means the machine's full CPU count.
func RunBenchmark(w io.Writer, m target.Target, name string, cpus int) error {
	if m == nil {
		return fmt.Errorf("ncar: nil target for benchmark %q", name)
	}
	if _, err := ByName(name); err != nil {
		return err
	}
	if cpus <= 0 {
		cpus = m.Spec().CPUs
	}
	switch name {
	case "PARANOIA", "ELEFUNT":
		return WriteCorrectness(w)
	case "COPY", "IA", "XPOSE":
		return core.WriteFigure(w, Fig5(m, 4))
	case "RFFT":
		return core.WriteFigure(w, Fig6(m))
	case "VFFT":
		return core.WriteFigure(w, Fig7(m))
	case "RADABS":
		if _, err := fmt.Fprintf(w, "RADABS (%s): %.1f Y-MP equivalent MFLOPS (paper on SX-4/1: 865.9)\n",
			m.Name(), RADABSMFlops(m)); err != nil {
			return err
		}
		return core.WriteTable(w, Table3(m))
	case "IO", "HIPPI", "NETWORK":
		return WriteIO(w, RunIOCategory())
	case "PRODLOAD":
		return WriteProdload(w, m)
	case "CCM2":
		if err := core.WriteFigure(w, Fig8(m)); err != nil {
			return err
		}
		for _, resName := range []string{"T42L18", "T106L18", "T170L18"} {
			res, _ := ccm2.ResolutionByName(resName)
			if _, err := fmt.Fprintf(w, "%s on %d CPUs: %.2f GFLOPS sustained, %.1f ms/step\n",
				resName, cpus, ccm2.SustainedGFLOPS(m, res, cpus),
				1e3*ccm2.StepSeconds(m, res, cpus, cpus)); err != nil {
				return err
			}
		}
		if err := core.WriteTable(w, Table5(m)); err != nil {
			return err
		}
		return core.WriteTable(w, Table6(m))
	case "MOM":
		if _, err := fmt.Fprintf(w, "MOM 1-degree sustained (%s, 1 CPU): %.0f MFLOPS\n",
			m.Name(), mom.SustainedMFLOPS(m)); err != nil {
			return err
		}
		return core.WriteTable(w, Table7(m))
	case "POP":
		_, err := fmt.Fprintf(w, "POP 2-degree (%s): %.0f MFLOPS (paper on SX-4/1: 537)\n", m.Name(), POPMFlops(m))
		return err
	}
	return fmt.Errorf("ncar: no runner for %q", name)
}

// WriteCorrectness writes the correctness category: the PARANOIA
// summary, one line per ELEFUNT function and the category verdict.
func WriteCorrectness(w io.Writer) error {
	c := RunCorrectness()
	if _, err := fmt.Fprintf(w, "PARANOIA: %s\n", c.Paranoia.Summary()); err != nil {
		return err
	}
	for _, e := range c.Elefunt {
		if _, err := fmt.Fprintf(w, "ELEFUNT %s\n", e); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "correctness category pass: %v\n", c.Pass)
	return err
}

// WriteIO writes the I/O category's disk history, HIPPI and network
// lines of r (not its concurrent-writer sweep).
func WriteIO(w io.Writer, r IOCategoryResult) error {
	for _, h := range r.History {
		if _, err := fmt.Fprintf(w, "IO %s\n", h); err != nil {
			return err
		}
	}
	for _, p := range r.HIPPI {
		if _, err := fmt.Fprintf(w, "HIPPI pkt=%dB x%d: %.1f MB/s per transfer, %.1f aggregate\n",
			p.PacketBytes, p.Concurrent, p.PerTransferMBps, p.AggregateMBps); err != nil {
			return err
		}
	}
	for _, n := range r.Network {
		if _, err := fmt.Fprintf(w, "NETWORK %-16s %8.3f s %8.2f MB/s\n", n.Name, n.Seconds, n.MBps); err != nil {
			return err
		}
	}
	return nil
}

// WriteProdload runs the production-mix benchmark on m and writes its
// per-test and total times.
func WriteProdload(w io.Writer, m target.Target) error {
	if m == nil {
		return fmt.Errorf("ncar: nil target for PRODLOAD")
	}
	r := prodload.Run(m)
	_, err := fmt.Fprintf(w,
		"PRODLOAD: test1=%.0fs test2=%.0fs test3=%.0fs test4=%.0fs total=%.0fs (%.1f min; paper: 93 min 28 s)\n",
		r.Test1, r.Test2, r.Test3, r.Test4, r.TotalSeconds, r.TotalMinutes())
	return err
}
