package serve

import (
	"context"
	"net/http"
	"sync"
)

// admitClass partitions queries by cost for admission control. The
// order is the priority order: when an execution slot frees, waiting
// run queries are granted before waiting sweep lines, which beat
// capacity Monte Carlos — under overload the cheap interactive
// endpoint keeps answering while the bulk endpoints degrade first.
type admitClass int

const (
	classRun      admitClass = iota // POST /v1/run executions
	classSweep                      // POST /v1/sweep line executions
	classCapacity                   // POST /v1/capacity Monte Carlos
	numClasses
)

var classNames = [numClasses]string{"run", "sweep", "capacity"}

func (c admitClass) String() string { return classNames[c] }

// admitter is a priority-aware bounded admission queue in front of the
// simulation executions: the daemon's overload valve. Each class has a
// concurrency budget and a bounded FIFO wait queue; a global cap
// bounds total concurrent executions across classes. A query that
// cannot be admitted immediately waits in its class queue until a slot
// frees (grants drain queues in class-priority order), its queue is
// already full (shed on arrival), its queue-wait deadline expires, or
// its request context dies. Every non-admission outcome maps to 503
// with a Retry-After hint, so well-behaved clients back off instead of
// hammering a saturated daemon.
//
// Only real executions pass through the admitter: cache hits and
// coalesced followers cost nothing and are never queued, so a hot
// cache keeps absorbing traffic even when the execution engine is
// saturated.
type admitter struct {
	mu     sync.Mutex
	budget [numClasses]int // per-class concurrency budgets
	// queues holds each waiting query's grant channel, FIFO per class;
	// grants drain the classes in order.
	queues   [numClasses][]chan struct{}
	inflight [numClasses]int
	total    int // executing now, all classes
	totalCap int // global concurrent-execution cap
	depth    int // per-class queue bound
}

func newAdmitter(totalCap, depth int, budget [numClasses]int) *admitter {
	a := &admitter{totalCap: totalCap, depth: depth, budget: budget}
	return a
}

// canAdmit reports whether a class has both budget and global headroom.
// Callers hold a.mu.
func (a *admitter) canAdmit(c admitClass) bool {
	return a.inflight[c] < a.budget[c] && a.total < a.totalCap
}

// admitLocked books one execution slot. Callers hold a.mu.
func (a *admitter) admitLocked(c admitClass) {
	a.inflight[c]++
	a.total++
}

// acquire admits one execution of class c, waiting in the class queue
// if the budgets are saturated. It returns a release function on
// admission; on failure it returns an *httpError carrying 503 and a
// Retry-After hint plus the outcome kind for the counters. ctx governs
// the wait only — the caller applies its queue-wait deadline by
// passing an already-bounded context.
func (a *admitter) acquire(ctx context.Context, c admitClass) (release func(), err *httpError) {
	a.mu.Lock()
	if a.canAdmit(c) && len(a.queues[c]) == 0 {
		a.admitLocked(c)
		a.mu.Unlock()
		return func() { a.release(c) }, nil
	}
	if len(a.queues[c]) >= a.depth {
		retry := a.retryAfterLocked(c)
		a.mu.Unlock()
		return nil, shedError(c, retry)
	}
	granted := make(chan struct{})
	a.queues[c] = append(a.queues[c], granted)
	a.mu.Unlock()

	select {
	case <-granted:
		return func() { a.release(c) }, nil
	case <-ctx.Done():
	}
	// The context died while queued — but a grant may have raced the
	// cancellation. Under the lock there are exactly two cases: the
	// waiter is still queued (unlink it, so no grant or gauge sees it
	// again), or it was granted (give the slot straight back).
	a.mu.Lock()
	select {
	case <-granted:
		a.mu.Unlock()
		a.release(c)
	default:
		for i, q := range a.queues[c] {
			if q == granted {
				a.queues[c] = append(a.queues[c][:i], a.queues[c][i+1:]...)
				break
			}
		}
		a.mu.Unlock()
	}
	return nil, waitError(ctx, c)
}

// release returns one class-c slot and grants queued waiters in class
// priority order (run drains before sweep before capacity).
func (a *admitter) release(c admitClass) {
	a.mu.Lock()
	a.inflight[c]--
	a.total--
	for cls := admitClass(0); cls < numClasses; cls++ {
		for len(a.queues[cls]) > 0 && a.canAdmit(cls) {
			granted := a.queues[cls][0]
			a.queues[cls] = a.queues[cls][1:]
			a.admitLocked(cls)
			// Closed under the lock deliberately: acquire's cancel path
			// checks the channel while holding the same lock, so a grant
			// and a cancellation can never both claim the waiter.
			close(granted)
		}
	}
	a.mu.Unlock()
}

// queued returns the admission queue depth across classes (the gauge
// /v1/stats reports).
func (a *admitter) queued() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for _, q := range a.queues {
		n += len(q)
	}
	return n
}

// executing returns the in-flight execution gauge.
func (a *admitter) executing() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.total
}

// retryAfterLocked estimates how long a shed client should wait before
// retrying: one second per queued-or-executing query ahead of it in
// its class, floored at one. Deterministic — a pure function of the
// admitter's occupancy, never the wall clock. Callers hold a.mu.
func (a *admitter) retryAfterLocked(c admitClass) int {
	ahead := a.inflight[c] + len(a.queues[c])
	if ahead < 1 {
		return 1
	}
	if ahead > maxRetryAfterSeconds {
		return maxRetryAfterSeconds
	}
	return ahead
}

// maxRetryAfterSeconds caps the Retry-After hint: past this, telling a
// client more would just serialize the herd behind one wall.
const maxRetryAfterSeconds = 30

// shedError is the queue-full outcome: the request never waited.
func shedError(c admitClass, retryAfter int) *httpError {
	e := failf(http.StatusServiceUnavailable,
		"serve: %s admission queue full, shedding load", c)
	e.retryAfter = retryAfter
	e.admitOutcome = outcomeShed
	return e
}

// waitError classifies a queue-wait failure: a deadline that expired
// while queued is a timeout; anything else is the client hanging up.
func waitError(ctx context.Context, c admitClass) *httpError {
	cause := context.Cause(ctx)
	e := failf(http.StatusServiceUnavailable,
		"serve: %s query left the admission queue unserved: %s", c, cause)
	e.retryAfter = 1
	if cause == context.DeadlineExceeded {
		e.admitOutcome = outcomeTimeout
	} else {
		e.admitOutcome = outcomeCancel
	}
	return e
}

// admission outcomes, for the stats counters.
type admitOutcome int

const (
	outcomeNone admitOutcome = iota
	outcomeShed
	outcomeTimeout
	outcomeCancel
)
