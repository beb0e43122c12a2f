package target

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// The registry maps short machine names ("ymp", "sx4-32") to target
// constructors. The concrete machine packages register themselves
// (package machine registers every Table 1 comparator and the SX-4
// configurations in its init), so everything above selects backends by
// name — the "-machine" flag of the CLIs — and no package outside the
// registry constructors ever builds a concrete machine type.

// entry is one registered machine: its constructor, and the one
// shared instance built from it on first use.
type entry struct {
	ctor   func() Target
	shared func() Target
	built  *atomic.Bool // set once shared has built its instance
}

var (
	regMu    sync.RWMutex
	registry = map[string]entry{}
	regOrder []string
)

// Register adds a named target constructor. Names are case-insensitive
// and must be unique; the constructor must return a fresh, independent
// target on every call. Register panics on a duplicate, empty or
// reserved name or a nil constructor — registration happens in package
// inits, where a panic is a programming error surfacing at startup.
func Register(name string, ctor func() Target) {
	key := strings.ToLower(strings.TrimSpace(name))
	if key == "" || key == "all" {
		panic(fmt.Sprintf("target: invalid machine name %q", name))
	}
	if ctor == nil {
		panic(fmt.Sprintf("target: nil constructor for machine %q", name))
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[key]; dup {
		panic(fmt.Sprintf("target: duplicate machine name %q", name))
	}
	built := new(atomic.Bool)
	registry[key] = entry{ctor: ctor, built: built, shared: sync.OnceValue(func() Target {
		t := ctor()
		built.Store(true)
		return t
	})}
	regOrder = append(regOrder, key)
}

// Lookup constructs a fresh instance of the named machine, with cold
// caches. Names are case-insensitive. Unknown names return an error
// listing every registered machine.
func Lookup(name string) (Target, error) {
	return build(name, func(e entry) Target { return e.ctor() })
}

// Shared returns the named machine's one shared instance, built on the
// first call and returned by every later one, whatever the spelling of
// the name. Sharing is safe because every Target entry point is safe
// for concurrent use and a machine's configuration is fixed at
// construction (Degrade returns a new machine), so callers that re-run
// the same traces reuse one compiled-trace cache instead of rebuilding
// the machine. Names resolve and fail exactly as in Lookup; an unknown
// name builds nothing. Drivers that need cold caches use Lookup.
func Shared(name string) (Target, error) {
	return build(name, func(e entry) Target { return e.shared() })
}

// build resolves a name to its registry entry and takes one instance
// from it.
func build(name string, from func(entry) Target) (Target, error) {
	key := strings.ToLower(strings.TrimSpace(name))
	regMu.RLock()
	e, ok := registry[key]
	regMu.RUnlock()
	if !ok {
		known := All()
		sort.Strings(known)
		return nil, fmt.Errorf("target: unknown machine %q (known: %s)",
			name, strings.Join(known, ", "))
	}
	t := from(e)
	if t == nil {
		return nil, fmt.Errorf("target: constructor for machine %q returned nil", name)
	}
	return t, nil
}

// EachShared calls fn with every shared instance Shared has already
// built, in registration order. It builds nothing: a machine no caller
// has asked for is skipped, which is how the daemon reads its books
// without standing up every machine.
func EachShared(fn func(name string, t Target)) {
	type built struct {
		name   string
		shared func() Target
	}
	var all []built
	regMu.RLock()
	for _, name := range regOrder {
		if e := registry[name]; e.built.Load() {
			all = append(all, built{name, e.shared})
		}
	}
	regMu.RUnlock()
	for _, b := range all {
		fn(b.name, b.shared())
	}
}

// MustLookup is Lookup for names known to be registered; it panics on
// error.
func MustLookup(name string) Target {
	return must(Lookup(name))
}

// MustShared is Shared for names known to be registered; it panics on
// error.
func MustShared(name string) Target {
	return must(Shared(name))
}

func must(t Target, err error) Target {
	if err != nil {
		panic(err)
	}
	return t
}

// All returns every registered machine name in registration order —
// the canonical column order of the cross-machine tables (the paper's
// Table 1 order, then the SX-4 configurations).
func All() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	return append([]string(nil), regOrder...)
}
