// Package sched is the parallel experiment engine: a bounded
// worker-pool scheduler that fans independent units of work out across
// host cores while keeping every observable result deterministic.
//
// Two properties make it safe to drop under the existing serial
// runners:
//
//   - Ordered output. Stream buffers each task's writes and emits them
//     in task order, so the combined stream is byte-identical to running
//     the tasks serially — regardless of completion order.
//   - Isolated errors. A failing task does not cancel unrelated work;
//     its error is reported exactly as the serial loop would have
//     reported it (first failure in task order wins, and output stops
//     at that task, matching a serial early return).
//
// The Workers convention used across the repository: n > 0 means
// exactly n workers, n == 0 means runtime.GOMAXPROCS(0), and 1 selects
// the plain serial path with no goroutines at all.
package sched

import (
	"bytes"
	"io"
	"runtime"
	"sync"
)

// Workers resolves a worker-count knob: 0 means GOMAXPROCS, negative
// values are clamped to 1.
func Workers(n int) int {
	if n == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if n < 1 {
		return 1
	}
	return n
}

// Task is one schedulable unit producing text output.
type Task struct {
	// ID labels the task in results (an experiment identifier).
	ID string
	// Run produces the task's output. It must write only to w.
	Run func(w io.Writer) error
}

// Result is one completed task.
type Result struct {
	ID     string
	Output []byte
	Err    error
}

// Run executes the tasks on a bounded pool and returns their results
// in task order. Every task runs to completion; errors are recorded
// per task, never cancelling the others.
func Run(workers int, tasks []Task) []Result {
	results := make([]Result, len(tasks))
	ForEach(workers, len(tasks), func(i int) error {
		var buf bytes.Buffer
		err := tasks[i].Run(&buf)
		results[i] = Result{ID: tasks[i].ID, Output: buf.Bytes(), Err: err}
		return nil
	})
	return results
}

// Stream executes the tasks on a bounded pool and writes their
// buffered outputs to w in task order. The stream is byte-identical to
// executing the tasks serially against w: output stops after the first
// task (in task order) that returns an error — that task's partial
// output is still written, exactly as a serial loop would have left it
// — and that error is returned.
func Stream(w io.Writer, workers int, tasks []Task) error {
	for _, r := range Run(workers, tasks) {
		if _, err := w.Write(r.Output); err != nil {
			return err
		}
		if r.Err != nil {
			return r.Err
		}
	}
	return nil
}

// ForEach runs fn(i) for i in [0, n) on a bounded pool of workers.
// Every index runs; the first error in index order is returned. With
// workers == 1 (after resolution) it degenerates to a plain loop,
// preserving exact serial semantics including early return.
func ForEach(workers, n int, fn func(i int) error) error {
	p := Workers(workers)
	if p > n {
		p = n
	}
	if p <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	errs := make([]error, n)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < p; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Map runs fn over [0, n) on a bounded pool and collects the values in
// index order. Like ForEach, every index runs and the first error in
// index order is returned alongside the (complete) slice.
func Map[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(workers, n, func(i int) error {
		v, err := fn(i)
		out[i] = v
		return err
	})
	return out, err
}
