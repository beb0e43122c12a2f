package ncar

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"sx4bench/internal/sx4"
)

func TestRunBenchmarkUnknownName(t *testing.T) {
	m := sx4.New(sx4.Benchmarked())
	var buf bytes.Buffer
	for _, name := range []string{"NOSUCH", "", "copy" /* case-sensitive */} {
		err := RunBenchmark(&buf, m, name, 1)
		if err == nil {
			t.Errorf("RunBenchmark(%q) accepted an unknown benchmark", name)
			continue
		}
		if !strings.Contains(err.Error(), name) && name != "" {
			t.Errorf("RunBenchmark(%q) error %q does not name the benchmark", name, err)
		}
	}
	if buf.Len() != 0 {
		t.Errorf("unknown benchmark wrote %d bytes of output", buf.Len())
	}
}

func TestRunBenchmarkNilTarget(t *testing.T) {
	var buf bytes.Buffer
	err := RunBenchmark(&buf, nil, "RADABS", 1)
	if err == nil {
		t.Fatal("RunBenchmark with nil target did not error")
	}
	if !strings.Contains(err.Error(), "nil target") {
		t.Errorf("nil-target error = %q, want mention of nil target", err)
	}
	// The guard must win even for an unknown name: no panic either way.
	if err := RunBenchmark(&buf, nil, "NOSUCH", 1); err == nil {
		t.Error("RunBenchmark(nil, unknown) did not error")
	}
	if buf.Len() != 0 {
		t.Errorf("nil target wrote %d bytes of output", buf.Len())
	}
}

// failWriter fails after n bytes, for exercising write-error paths.
type failWriter struct{ n int }

var errSink = errors.New("sink full")

func (f *failWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errSink
	}
	if len(p) > f.n {
		n := f.n
		f.n = 0
		return n, errSink
	}
	f.n -= len(p)
	return len(p), nil
}

func TestRunBenchmarkPropagatesWriteError(t *testing.T) {
	m := sx4.New(sx4.Benchmarked())
	for _, name := range []string{"RADABS", "COPY", "POP"} {
		if err := RunBenchmark(&failWriter{n: 10}, m, name, 1); !errors.Is(err, errSink) {
			t.Errorf("RunBenchmark(%s) on a failing writer returned %v, want errSink", name, err)
		}
	}
}
