package campaign

import (
	"io"
	"sync"
)

// Experiment is a named, self-printing experiment — one table or figure of
// the paper (or an extension). Drivers register themselves at init time;
// the CLIs dispatch by name.
type Experiment struct {
	// Name is the CLI-facing identifier, e.g. "fig15" or "sweep".
	Name string
	// Desc is a one-line description for usage listings.
	Desc string
	// InAll marks experiments that "all" should run. Redundant views of a
	// shared grid (fig15–fig18 are all printed by "sweep") leave it false.
	InAll bool
	// Run executes the experiment and writes its tables to w.
	Run func(o *Options, w io.Writer) error
}

var (
	regMu    sync.RWMutex
	registry = map[string]Experiment{}
	regOrder []string
)

// Register adds an experiment to the registry. It panics on duplicate or
// unnamed registrations — both are programming errors caught at init.
func Register(e Experiment) {
	if e.Name == "" || e.Run == nil {
		panic("campaign: Register requires a Name and a Run func")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[e.Name]; dup {
		panic("campaign: duplicate experiment " + e.Name)
	}
	registry[e.Name] = e
	regOrder = append(regOrder, e.Name)
}

// Lookup resolves an experiment by name.
func Lookup(name string) (Experiment, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	e, ok := registry[name]
	return e, ok
}

// Names returns every registered name in registration order.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	return append([]string(nil), regOrder...)
}

// AllNames returns the registration-ordered names with InAll set — the
// expansion of the CLI's "all" argument.
func AllNames() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	var out []string
	for _, n := range regOrder {
		if registry[n].InAll {
			out = append(out, n)
		}
	}
	return out
}
