package target

import (
	"sync"

	"sx4bench/internal/sx4/prog"
)

// TraceCache memoizes compiled traces by the parameters that generate
// them. The experiment drivers revisit the same trace shapes — sweep
// points, cross-machine columns, report sections and resilient
// attempts would each pay the full O(ops) construction-plus-hash cost
// — so helpers cache the compiled form keyed by the generating
// parameters and run it through Target.RunCompiled.
//
// The zero value is ready to use. build must be a pure function of k
// (the repo-wide trace contract); when two goroutines race on a cold
// key, the first store wins and both observe it.
type TraceCache[K comparable] struct{ m sync.Map }

// Get returns the cached compiled trace for k, building and flattening
// it on first use. It panics on an invalid program, mirroring Run.
func (c *TraceCache[K]) Get(k K, build func() prog.Program) *prog.Compiled {
	if v, ok := c.m.Load(k); ok {
		return v.(*prog.Compiled)
	}
	ct := prog.MustCompile(build())
	if prev, loaded := c.m.LoadOrStore(k, ct); loaded {
		return prev.(*prog.Compiled)
	}
	return ct
}
