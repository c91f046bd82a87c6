package campaign

import (
	"sync"
	"time"
)

// Grid holds the knobs that change a grid experiment's task matrix. It is
// also the wire form of those knobs: a fleet worker rebuilds the matrix
// from (family, spec), and spec is a Grid marshalled as JSON (plus a
// family's own extras). Journal keys start with the same bytes (see
// ExecOptions.matrixKey), so the JSON names and their order are part of
// the journal format.
type Grid struct {
	// Quick scales durations down (~5x), for benchmarks and CI.
	Quick bool `json:"quick,omitempty"`
	// TimeDiv, when > 0, divides durations by this factor instead of
	// Quick's fixed 5x. The golden harness captures fingerprints with
	// Quick grids and a deeper TimeDiv so the whole registry stays cheap.
	TimeDiv int `json:"timediv,omitempty"`
	// FF turns on the hybrid fluid/packet engine for eligible cells
	// (steady bulk population, FastForwarder AQM); ineligible cells
	// silently run per-packet. It also adds the heavy tier's 10000- and
	// 50000-flow cells, which are not ff-only: at -timediv 10 one such cell
	// took 1.7-13.8 s in packet mode and 1.1-7.6 s under -ff (2-core VM).
	FF bool `json:"ff,omitempty"`
	// Reps repeats each heavy/sweep cell with perturbed seeds and reports
	// cross-seed confidence bands; 0/1 keeps the single-run tables.
	Reps int `json:"reps,omitempty"`
	// Target overrides the AQM target delay in the drivers that default
	// to the paper's 20 ms (heavy, sweep, chaos, interop); 0 keeps 20 ms.
	// Briscoe's "PI2 Parameters" follow-up recommends 15 ms for the Linux
	// dualpi2 default; goldens pin 20 ms, so overrides never regress them.
	Target time.Duration `json:"target_ns,omitempty"`
}

// Scale shortens a duration by TimeDiv, else by 5x in Quick mode.
func (g Grid) Scale(d time.Duration) time.Duration {
	if g.TimeDiv > 0 {
		return d / time.Duration(g.TimeDiv)
	}
	if g.Quick {
		return d / 5
	}
	return d
}

// RepCount returns the effective repetition count (at least 1).
func (g Grid) RepCount() int {
	if g.Reps < 1 {
		return 1
	}
	return g.Reps
}

// TargetDelay returns the effective AQM target delay: the paper's 20 ms
// unless overridden.
func (g Grid) TargetDelay() time.Duration {
	if g.Target > 0 {
		return g.Target
	}
	return 20 * time.Millisecond
}

// Options carries one invocation's knobs from the command line to every
// experiment it runs and every grid driver inside them. The embedded Grid
// changes what runs; the embedded ExecOptions change where and how it runs.
// Of the latter only BaseSeed (0 means 1) and Shards move a record, and
// they join the grid spec in the matrix's identity (see ExecOptions). The
// drivers set Family, Spec and SkipDone per matrix and ignore what Options
// holds there. ExecOptions.FastForward does nothing: Grid.FF is the
// fast-forward knob.
type Options struct {
	Grid
	ExecOptions

	memo map[string]any
}

// memoMu guards every Options' memo table. It lives outside Options so
// that the drivers can take Options by value without copying a lock.
var memoMu sync.Mutex

// Memo returns the cached value for key, computing and caching it on first
// use, so experiments sharing a grid (fig15–fig18 all print the coexistence
// sweep) compute it once per invocation. compute runs outside the lock;
// experiments within one invocation run sequentially, so a key is never
// computed twice.
func (o *Options) Memo(key string, compute func() any) any {
	memoMu.Lock()
	v, ok := o.memo[key]
	memoMu.Unlock()
	if ok {
		return v
	}
	v = compute()
	memoMu.Lock()
	if o.memo == nil {
		o.memo = make(map[string]any)
	}
	o.memo[key] = v
	memoMu.Unlock()
	return v
}
