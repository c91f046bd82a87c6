package campaign

import (
	"sync"
	"time"
)

// Grid holds the knobs that change a grid experiment's task matrix. It is
// also the wire form of those knobs: a fleet worker rebuilds the matrix
// from (family, spec), and spec is a Grid marshalled as JSON (plus a
// family's own extras). Journals key their segments by the same bytes, so
// the JSON names and their order are part of the journal format.
type Grid struct {
	// Quick scales durations down (~5x), for benchmarks and CI.
	Quick bool `json:"quick,omitempty"`
	// TimeDiv, when > 0, divides durations by this factor instead of
	// Quick's fixed 5x. The golden harness captures fingerprints with
	// Quick grids and a deeper TimeDiv so the whole registry stays cheap.
	TimeDiv int `json:"timediv,omitempty"`
	// FF turns on the hybrid fluid/packet engine for eligible cells
	// (steady bulk population, FastForwarder AQM); ineligible cells
	// silently run per-packet. It also extends the heavy tier with the
	// 10000- and 50000-flow cells that are only tractable analytically.
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
// changes what runs; the remaining fields change only where and how, never
// a record (seeds derive from Seed and each cell's matrix position).
type Options struct {
	Grid
	// Jobs is the in-process worker-pool width; <= 0 runs serially. The
	// output is bit-identical at any width.
	Jobs int
	// Shards partitions each cell's simulation across this many event-loop
	// domains (conservative PDES); 0/1 keeps the classic single loop.
	// Scenarios that cannot shard ignore it.
	Shards int
	// Seed is the campaign base seed (0 means 1); each cell runs with
	// DeriveSeed(Seed, its seed index).
	Seed int64
	// Watchdog bounds each cell's attempts (zero = unsupervised).
	Watchdog Watchdog
	// Retries re-runs failed cells with perturbed seeds; RetryBackoff is
	// the doubling wait between attempts.
	Retries      int
	RetryBackoff time.Duration
	// Progress, if set, observes every completed run.
	Progress ProgressFunc
	// Collector, if set, receives every RunRecord (the CLI's -json sink).
	Collector *Collector
	// Dispatch, if set, routes every grid with a registered task source
	// through a fleet of worker processes (the CLI's -workers flag);
	// records and tables stay byte-identical to in-process runs.
	Dispatch Dispatcher
	// Journal, if set, records every fresh final record of every grid with
	// a registered task source (-journal); Resume replays a previous
	// journal's completed cells instead of re-running them (-resume).
	Journal JournalSink
	Resume  ResumeSet

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
