package sched

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkersResolution(t *testing.T) {
	if Workers(0) != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS", Workers(0))
	}
	if Workers(-3) != 1 || Workers(1) != 1 || Workers(7) != 7 {
		t.Error("Workers clamping wrong")
	}
}

func makeTasks(n int) []Task {
	tasks := make([]Task, n)
	for i := range tasks {
		i := i
		tasks[i] = Task{
			ID: fmt.Sprintf("t%d", i),
			Run: func(w io.Writer) error {
				// Finish in roughly reverse order to stress reordering.
				time.Sleep(time.Duration(n-i) * time.Millisecond / 4)
				fmt.Fprintf(w, "=== t%d ===\nline a %d\nline b %d\n", i, i, i*i)
				return nil
			},
		}
	}
	return tasks
}

// TestStreamByteIdentical is the scheduler's core contract: parallel
// execution must produce the exact bytes of serial execution.
func TestStreamByteIdentical(t *testing.T) {
	tasks := makeTasks(12)
	var serial bytes.Buffer
	for _, task := range tasks {
		if err := task.Run(&serial); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{1, 2, 4, 16} {
		var par bytes.Buffer
		if err := Stream(&par, workers, tasks); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !bytes.Equal(serial.Bytes(), par.Bytes()) {
			t.Fatalf("workers=%d: output differs from serial", workers)
		}
	}
}

// TestStreamErrorSemantics: output stops at the first failing task (in
// task order), its partial output included, later outputs suppressed —
// but the later tasks still ran.
func TestStreamErrorSemantics(t *testing.T) {
	var ran atomic.Int32
	boom := errors.New("boom")
	tasks := []Task{
		{ID: "a", Run: func(w io.Writer) error { ran.Add(1); fmt.Fprint(w, "A"); return nil }},
		{ID: "b", Run: func(w io.Writer) error { ran.Add(1); fmt.Fprint(w, "B-partial"); return boom }},
		{ID: "c", Run: func(w io.Writer) error { ran.Add(1); fmt.Fprint(w, "C"); return nil }},
	}
	var buf bytes.Buffer
	err := Stream(&buf, 3, tasks)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if got := buf.String(); got != "AB-partial" {
		t.Errorf("output %q, want %q", got, "AB-partial")
	}
	if ran.Load() != 3 {
		t.Errorf("%d tasks ran, want all 3 (no cancellation)", ran.Load())
	}
}

func TestRunKeepsOrderAndErrors(t *testing.T) {
	boom := errors.New("boom")
	tasks := makeTasks(6)
	tasks[4].Run = func(w io.Writer) error { return boom }
	res := Run(4, tasks)
	if len(res) != 6 {
		t.Fatalf("got %d results", len(res))
	}
	for i, r := range res {
		if r.ID != fmt.Sprintf("t%d", i) {
			t.Errorf("result %d has ID %s", i, r.ID)
		}
	}
	if res[4].Err != boom || res[3].Err != nil {
		t.Error("error not attributed to the failing task")
	}
}

func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		var mask [100]atomic.Bool
		if err := ForEach(workers, 100, func(i int) error {
			if mask[i].Swap(true) {
				t.Errorf("index %d ran twice", i)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range mask {
			if !mask[i].Load() {
				t.Fatalf("workers=%d: index %d never ran", workers, i)
			}
		}
	}
}

func TestForEachFirstErrorInIndexOrder(t *testing.T) {
	e3, e7 := errors.New("e3"), errors.New("e7")
	err := ForEach(4, 10, func(i int) error {
		switch i {
		case 3:
			time.Sleep(5 * time.Millisecond) // finishes after e7
			return e3
		case 7:
			return e7
		}
		return nil
	})
	if err != e3 {
		t.Errorf("err = %v, want e3 (first in index order)", err)
	}
}

func TestMapOrdered(t *testing.T) {
	vals, err := Map(5, 20, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if v != i*i {
			t.Fatalf("vals[%d] = %d", i, v)
		}
	}
}

func TestForEachZeroAndTiny(t *testing.T) {
	if err := ForEach(8, 0, func(int) error { return errors.New("no") }); err != nil {
		t.Error("n=0 should be a no-op")
	}
	calls := 0
	if err := ForEach(8, 1, func(i int) error { calls++; return nil }); err != nil || calls != 1 {
		t.Error("n=1 should run once serially")
	}
}
