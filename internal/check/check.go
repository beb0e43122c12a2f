// Package check is the differential verification subsystem: the layer
// that pins the reproduction's *artifacts* down so refactors of the
// machine model or the benchmark runners cannot silently bend the
// paper's tables and figures while every unit test still passes.
//
// It has three parts:
//
//   - The golden-artifact harness (this file, golden_test.go and
//     cmd/goldens): every paper table and figure — plus the scalar
//     anchors and the multinode/profile projections — rendered to
//     canonical byte-stable text via the same sx4bench.RunExperiment
//     path cmd/figures uses, and compared byte-for-byte against
//     testdata/goldens on every `go test`. `make goldens` (cmd/goldens
//     -update) regenerates the files after an intentional model change.
//   - The metamorphic property suite (metamorphic_test.go): invariants
//     of the machine model — clock-frequency inversion, vector-length
//     amortization, cache warm/cold and worker-count invariance,
//     stride-1 conflict-freedom — expressed over randomized operation
//     traces, so they survive recalibrations that legitimately move
//     the goldens.
//   - Native fuzz targets (fuzz_test.go): FuzzProgramFingerprint,
//     FuzzMachineRun and FuzzReportParse, with seed corpora under
//     testdata/fuzz, asserting no panics and fingerprint/run-cache
//     coherence on arbitrary structured inputs.
package check

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"sx4bench"
	"sx4bench/internal/core"
)

// DefaultDir is the repository-relative golden directory.
const DefaultDir = "internal/check/testdata/goldens"

// Artifacts returns the identifiers of every golden-pinned artifact, in
// render order: the seven paper tables, the four paper figures, the
// scalar anchors (RADABS, POP, PRODLOAD), the I/O category, the
// multinode and profile projections, the cross-machine suite sweep,
// the resilience sweep (degraded-mode rates and recovery accounting
// under the canonical fault schedule), the canonical sx4d /v1/run
// response body (the daemon's content-addressed wire bytes for the
// full suite on the flagship configuration), and the fleet capacity
// Monte Carlo (per-mix latency percentiles and recovery accounting
// over the canonical fleet, checksum included). The identifiers are
// the sx4bench.RunExperiment ids, so any golden can be reproduced by
// hand with `go run ./cmd/figures -exp <id>`.
//
// Deliberately absent: "correctness" and "report", whose output embeds
// PARANOIA/ELEFUNT probes of the host's floating-point arithmetic —
// pinned by their own unit tests, but not byte-stable across
// architectures the way the pure-model artifacts are.
func Artifacts() []string {
	return []string{
		"table1", "table2", "table3", "table4", "table5", "table6", "table7",
		"fig5", "fig6", "fig7", "fig8",
		"radabs", "pop", "prodload", "io",
		"multinode", "profile", "crossmachine", "resilience",
		"serve", "capacity",
	}
}

// Render produces the canonical text of one artifact on m — exactly the
// bytes `cmd/figures -exp id` writes.
func Render(m *sx4bench.Machine, id string) (string, error) {
	var buf strings.Builder
	if err := sx4bench.RunExperiment(&buf, m, id); err != nil {
		return "", fmt.Errorf("check: render %s: %w", id, err)
	}
	return buf.String(), nil
}

// GoldenPath returns the golden file path for an artifact id.
func GoldenPath(dir, id string) string {
	return filepath.Join(dir, id+".golden")
}

// Mismatch describes one artifact whose rendered text differs from its
// golden file.
type Mismatch struct {
	ID      string
	Path    string
	Missing bool   // no golden file on disk
	Diff    string // first differing line, empty when Missing
}

func (m Mismatch) String() string {
	if m.Missing {
		return fmt.Sprintf("%s: golden file %s missing", m.ID, m.Path)
	}
	return fmt.Sprintf("%s: differs from %s at %s", m.ID, m.Path, m.Diff)
}

// VerifyIDs renders the given artifacts on a fresh benchmarked machine
// and compares the output byte-for-byte against the goldens in dir. It
// returns one Mismatch per differing or missing artifact; rendering or
// filesystem failures (other than a missing golden) are errors.
func VerifyIDs(dir string, ids []string) ([]Mismatch, error) {
	m := sx4bench.Benchmarked()
	var out []Mismatch
	for _, id := range ids {
		got, err := Render(m, id)
		if err != nil {
			return nil, err
		}
		path := GoldenPath(dir, id)
		want, err := os.ReadFile(path)
		if errors.Is(err, fs.ErrNotExist) {
			out = append(out, Mismatch{ID: id, Path: path, Missing: true})
			continue
		}
		if err != nil {
			return nil, err
		}
		if got != string(want) {
			out = append(out, Mismatch{ID: id, Path: path, Diff: FirstDiff(string(want), got)})
		}
	}
	return out, nil
}

// UpdateIDs renders the given artifacts and rewrites their goldens in
// dir, returning the ids whose files were created or changed. An
// update run on an unchanged model is a no-op with an empty changed
// list, so `cmd/goldens -update` round-trips to a clean git diff.
func UpdateIDs(dir string, ids []string) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	m := sx4bench.Benchmarked()
	var changed []string
	for _, id := range ids {
		got, err := Render(m, id)
		if err != nil {
			return changed, err
		}
		path := GoldenPath(dir, id)
		old, err := os.ReadFile(path)
		if err == nil && string(old) == got {
			continue
		}
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			return changed, err
		}
		if err := core.WriteFileAtomic(path, []byte(got), 0o644); err != nil {
			return changed, err
		}
		changed = append(changed, id)
	}
	return changed, nil
}

// FirstDiff locates the first line where got departs from want and
// renders it diff-style, for test failure messages.
func FirstDiff(want, got string) string {
	wl := strings.Split(want, "\n")
	gl := strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("line %d:\n\t-%s\n\t+%s", i+1, w, g)
		}
	}
	return "no difference"
}
