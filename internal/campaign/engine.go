// Package campaign turns the experiment layer into a declarative engine.
// Grid drivers describe their work as a matrix of independent Tasks; a
// bounded worker pool executes them and returns one RunRecord per task, in
// matrix order, regardless of how many workers ran or in what order cells
// finished. Named experiments register themselves (registry.go) so the CLIs
// dispatch from one table instead of a hand-written if-chain.
//
// Each task runs its own single-threaded sim.Simulator; only *runs* are
// concurrent, never the events inside one. Seeds derive from
// (base seed, seed index) alone, so a campaign's output is bit-identical at
// any worker count.
package campaign

import (
	"fmt"
	"runtime"
	"sync"
	"time"
)

// Task is one independent run in a campaign matrix.
type Task struct {
	// Name identifies the experiment (and, after a slash, the cell's arm),
	// e.g. "sweep" or "fig12/pie".
	Name string
	// SeedIndex feeds seed derivation: the run executes with
	// DeriveSeed(base, SeedIndex). Matrices normally set it to the cell's
	// position; paired arms that must see identical traffic (PIE vs PI2 on
	// the same schedule) share one index.
	SeedIndex int
	// Params records the cell's coordinates for the serialized RunRecord.
	Params map[string]any
	// Run executes the cell and returns its result. tc carries the derived
	// seed and the watchdog hookup (tc.Watch). A panic fails this cell
	// only; the rest of the grid completes.
	Run func(tc *TaskCtx) any
}

// Canceler is the cooperative-cancellation surface a cell registers with
// the watchdog: Cancel asks the component to stop at its next safe point
// (from another goroutine), and NowNanos exposes its virtual clock so the
// watchdog can tell "slow" from "stuck". *sim.Simulator satisfies it
// structurally; campaign never imports sim.
type Canceler interface {
	Cancel(reason string)
	NowNanos() int64
}

// TaskCtx is the per-attempt context a Task.Run receives: the attempt's
// seed, which retry this is, and the registration point for watchdog
// supervision. A fresh TaskCtx is built for every attempt, so a retried
// cell never sees stale cancellation state.
type TaskCtx struct {
	// Seed is the attempt's RNG seed: DeriveSeed(base, SeedIndex) on the
	// first attempt, perturbed by PerturbSeed on retries.
	Seed int64
	// Attempt counts retries, starting at 0.
	Attempt int
	// Shards is the campaign-wide simulation shard count (ExecOptions.
	// Shards); the heavy, sweep and chaos cells run on that many event-loop
	// domains. 0 or 1 means the classic single-loop path.
	Shards int

	mu       sync.Mutex
	watched  []Canceler
	canceled bool
	reason   string
}

// Watch registers a simulator (or any Canceler) for watchdog supervision.
// Registering after the cell was already canceled cancels the component
// immediately, closing the race between a slow construction and the
// monitor's verdict. Without a watchdog configured, Watch is a cheap no-op
// registration.
func (tc *TaskCtx) Watch(c Canceler) {
	tc.mu.Lock()
	if tc.canceled {
		reason := tc.reason
		tc.mu.Unlock()
		c.Cancel(reason)
		return
	}
	tc.watched = append(tc.watched, c)
	tc.mu.Unlock()
}

// cancel fans the verdict out to every watched component exactly once.
func (tc *TaskCtx) cancel(reason string) {
	tc.mu.Lock()
	if tc.canceled {
		tc.mu.Unlock()
		return
	}
	tc.canceled = true
	tc.reason = reason
	watched := append([]Canceler(nil), tc.watched...)
	tc.mu.Unlock()
	for _, c := range watched {
		c.Cancel(reason)
	}
}

// progress sums the watched components' virtual clocks (and reports how
// many there are): if the sum stops moving while wall time passes, the
// cell is stalled, not slow.
func (tc *TaskCtx) progress() (int64, int) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	var sum int64
	for _, c := range tc.watched {
		sum += c.NowNanos()
	}
	return sum, len(tc.watched)
}

// Watchdog bounds a cell's execution. The zero value disables supervision
// entirely, in which case tasks run on the worker's own goroutine exactly
// as before hardening.
type Watchdog struct {
	// Timeout is the hard wall-clock budget per attempt (0 = unlimited).
	Timeout time.Duration
	// Stall cancels an attempt whose watched simulators' virtual clocks
	// have not advanced for this much wall time (0 = no stall detection).
	// Cells that register nothing via Watch are exempt: with no virtual
	// clock to observe, "stalled" cannot be distinguished from "busy".
	Stall time.Duration
	// Poll is the monitor's sampling interval (default 20 ms).
	Poll time.Duration
	// Grace is how long a canceled attempt gets to unwind before its
	// goroutine is abandoned and the cell recorded as timed out
	// (default 1 s). Abandonment only happens when a callback ignores
	// cooperative cancellation (e.g. an infinite loop inside one event).
	Grace time.Duration
}

func (w Watchdog) enabled() bool { return w.Timeout > 0 || w.Stall > 0 }

func (w Watchdog) poll() time.Duration {
	if w.Poll > 0 {
		return w.Poll
	}
	return 20 * time.Millisecond
}

func (w Watchdog) grace() time.Duration {
	if w.Grace > 0 {
		return w.Grace
	}
	return time.Second
}

// EventCounter lets Execute extract the simulated-event count from a run's
// result without depending on the experiments package.
type EventCounter interface{ EventCount() uint64 }

// MetricsReporter lets Execute reduce a run's result to a flat map of named
// scalar metrics — the statistical fingerprint the golden-regression harness
// compares against tolerance bands. Result types implement it next to
// EventCounter; Execute stores the metrics on the RunRecord so every -json
// dump and golden capture sees the same reduction.
type MetricsReporter interface{ Metrics() map[string]float64 }

// RunRecord is the structured outcome of one task: the cell's parameters,
// its result, and the execution metadata the scaling work keys on.
type RunRecord struct {
	Name   string         `json:"name"`
	Index  int            `json:"index"`
	Seed   int64          `json:"seed"`
	Params map[string]any `json:"params,omitempty"`
	// Result is the task's return value (nil if the task panicked).
	Result any `json:"result,omitempty"`
	// Err holds the recovered panic message for a failed cell.
	Err string `json:"error,omitempty"`
	// WallMs is the cell's wall-clock execution time in milliseconds.
	WallMs float64 `json:"wall_ms"`
	// Events and EventsPerSec report simulator throughput when the result
	// implements EventCounter.
	Events       uint64  `json:"events,omitempty"`
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
	// Metrics is the run's scalar fingerprint when the result implements
	// MetricsReporter (the golden harness keys on it).
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Attempts is how many attempts the cell took (1 = first try).
	Attempts int `json:"attempts,omitempty"`
	// TimedOut marks a cell the watchdog killed (wall-clock timeout or
	// sim-time stall); Err carries the watchdog's reason.
	TimedOut bool `json:"timed_out,omitempty"`
}

// ProgressFunc observes each completed run. done counts completions so far
// (1-based); calls are serialized but arrive in completion order, not matrix
// order.
type ProgressFunc func(done, total int, rec RunRecord)

// ExecOptions configure one Execute call.
type ExecOptions struct {
	// Jobs is the worker-pool width; <= 0 means runtime.GOMAXPROCS(0)
	// here and a serial pool in the grid drivers.
	Jobs int
	// Shards is the per-cell simulation shard count handed to every
	// TaskCtx; 0 or 1 selects the classic single-event-loop path. Only the
	// heavy, sweep and chaos drivers set Scenario.Shards from it; every
	// other driver ignores it (TestShardedSubstrateEdges pins the sharded
	// substrate's staged-traffic edges). Jobs parallelizes across cells,
	// Shards inside one cell, and a cell's records depend on Shards.
	Shards int
	// FastForward has no effect: a cell takes fast-forward from its matrix
	// (Grid.FF), which a fleet worker rebuilds from the spec.
	//
	// Deprecated: kept only because the bench module's heavy workloads
	// still set it; it goes with them.
	FastForward bool
	// BaseSeed is the campaign's base seed; each task runs with
	// DeriveSeed(BaseSeed, task.SeedIndex). The drivers treat 0 as 1.
	BaseSeed int64
	// Progress, if set, is invoked after every completed run.
	Progress ProgressFunc
	// Collector, if set, additionally receives every RunRecord.
	Collector *Collector
	// Watchdog bounds each attempt; the zero value disables supervision.
	Watchdog Watchdog
	// Retries is how many times a failed attempt is re-run (with a
	// perturbed seed) before the cell is recorded as failed. Abandoned
	// attempts — ones that ignored cooperative cancellation — are never
	// retried: their goroutines are still wedged, and piling more on a
	// deterministic hang would leak one goroutine per retry.
	Retries int
	// RetryBackoff is the wait before retry k (doubling each retry).
	RetryBackoff time.Duration
	// Family names the registered task source (RegisterSource) that can
	// rebuild this matrix from Spec in another process. Empty means the
	// matrix only exists as closures here, and dispatch stays in-process
	// even when a Dispatcher is configured.
	Family string
	// Spec is the serialized grid description handed to the Family's task
	// source; a worker process rebuilds the identical []Task from it.
	Spec []byte
	// Dispatch, when non-nil (and Family is set), routes cells to a fleet
	// of worker processes instead of the in-process pool. Records still
	// arrive through the same collector/progress/sink funnel.
	Dispatch Dispatcher
	// Journal, when non-nil (and Family is set), observes every fresh
	// final record so a crashed campaign can be resumed (-journal).
	Journal JournalSink
	// Resume, when non-nil (and Family is set), supplies final records
	// from a previous invocation's journal: cells with a hit are emitted
	// from the journal instead of re-running (-resume).
	Resume ResumeSet
	// SkipDone is set by ExecuteStream when Resume produced hits: the
	// indices whose records were already emitted. Dispatchers must not run
	// (or emit) these cells. Callers leave it nil.
	SkipDone map[int]bool
}

// matrixKey returns the bytes that, with Family, identify the matrix this
// invocation runs: everything its records depend on. That is the Spec,
// then the base seed and the shard count (0 counts as 1) unless they are
// the defaults 1 and 1, so a journal written before they joined the key
// still matches at the defaults. Journals and resume sets key on it.
func (o ExecOptions) matrixKey() []byte {
	shards := max(o.Shards, 1)
	if o.BaseSeed == 1 && shards == 1 {
		return o.Spec
	}
	return fmt.Appendf(append([]byte(nil), o.Spec...), "\x00seed=%d shards=%d", o.BaseSeed, shards)
}

// Dispatcher executes a task matrix somewhere other than the in-process
// pool — typically a fleet of worker processes (internal/fleet). emit must
// be invoked exactly once per cell not in opt.SkipDone; calls may come
// from any goroutine and in any order (Execute serializes them). tasks
// carries the in-process closures so a dispatcher can degrade to local
// execution when every worker is gone. A returned error is a
// configuration or protocol bug (unknown family, matrix-size
// disagreement), not a cell failure — cell failures travel inside
// RunRecords.
type Dispatcher interface {
	Dispatch(tasks []Task, opt ExecOptions, emit func(RunRecord)) error
}

// JournalSink observes every final RunRecord of a matrix as it is emitted,
// preceded by one BeginSegment identifying the matrix by its family and
// key (ExecOptions.matrixKey: spec, base seed and shard count) — enough for
// a journal (internal/fleet) to replay a crashed campaign's completed cells.
// Both methods are called under ExecuteStream's emit lock, so records for
// one segment arrive serialized (in completion order, like every other
// sink). Records resumed from a previous journal are NOT re-journaled.
type JournalSink interface {
	BeginSegment(family string, key []byte, cells int)
	Record(rec RunRecord)
}

// ResumeSet answers whether a cell already has a final record from a
// previous (crashed) invocation of the same campaign. A hit must identify
// the same matrix — the family and key JournalSink.BeginSegment received —
// and the returned record is emitted verbatim instead of re-running the
// cell.
type ResumeSet interface {
	Lookup(family string, key []byte, index int) (RunRecord, bool)
}

// PerturbSeed maps an attempt's base seed to a retry seed: a SplitMix64
// step over (seed, attempt), so retries explore different randomness while
// remaining a pure function of the pair — a retried campaign is exactly as
// reproducible as a first-try one.
func PerturbSeed(seed int64, attempt int) int64 {
	if attempt == 0 {
		return seed
	}
	z := uint64(seed) ^ uint64(attempt)*0xD1B54A32D192ED03
	z += 0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	s := int64(z)
	if s == 0 {
		s = 1
	}
	return s
}

// DeriveSeed maps (base, index) to a run's seed via a SplitMix64 step, so
// every cell of a matrix gets a distinct well-mixed stream. The mapping
// depends only on the pair — never on worker count or completion order —
// which keeps campaigns reproducible under any parallelism.
func DeriveSeed(base int64, index int) int64 {
	z := uint64(base) + uint64(int64(index)+1)*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	s := int64(z)
	if s == 0 {
		// Seed 0 means "use the default" elsewhere in the repo; avoid it.
		s = 1
	}
	return s
}

// Execute fans the tasks across a bounded worker pool (or a fleet
// dispatcher, when configured) and returns one RunRecord per task, in task
// order. It never shares RNG state between tasks: each task derives its own
// seed and builds its own simulator.
func Execute(tasks []Task, opt ExecOptions) []RunRecord {
	recs := make([]RunRecord, len(tasks))
	ExecuteStream(tasks, opt, func(rec RunRecord) {
		recs[rec.Index] = rec
	})
	return recs
}

// ExecuteStream is Execute without the grid-sized result slice: sink
// observes each RunRecord exactly once, in completion order, serialized
// with the collector and progress callbacks. Drivers that fold records
// into aggregates as they arrive (heavy, sweep) use it to keep peak memory
// proportional to the in-flight window instead of the matrix.
func ExecuteStream(tasks []Task, opt ExecOptions, sink func(RunRecord)) {
	if len(tasks) == 0 {
		return
	}
	var (
		mu   sync.Mutex
		done int
	)
	if opt.Collector != nil {
		opt.Collector.begin(len(tasks))
	}
	key := opt.matrixKey()
	journaling := opt.Journal != nil && opt.Family != ""
	if journaling {
		opt.Journal.BeginSegment(opt.Family, key, len(tasks))
	}
	// fresh distinguishes records produced by this invocation (journaled)
	// from ones replayed out of a previous journal (already on disk).
	emitWith := func(rec RunRecord, fresh bool) {
		mu.Lock()
		done++
		if journaling && fresh {
			opt.Journal.Record(rec)
		}
		if opt.Collector != nil {
			opt.Collector.add(rec)
		}
		if opt.Progress != nil {
			opt.Progress(done, len(tasks), rec)
		}
		if sink != nil {
			sink(rec)
		}
		mu.Unlock()
	}
	emit := func(rec RunRecord) { emitWith(rec, true) }

	// Resume: cells with a journaled final record are emitted verbatim and
	// excluded from execution. The skip-set travels to dispatchers via
	// opt.SkipDone so a fleet never re-dispatches a completed cell.
	if opt.Resume != nil && opt.Family != "" {
		skip := make(map[int]bool)
		for i := range tasks {
			if rec, ok := opt.Resume.Lookup(opt.Family, key, i); ok {
				rec.Index = i
				skip[i] = true
				emitWith(rec, false)
			}
		}
		if len(skip) == len(tasks) {
			return
		}
		if len(skip) > 0 {
			opt.SkipDone = skip
		}
	}

	if opt.Dispatch != nil && opt.Family != "" {
		if err := opt.Dispatch.Dispatch(tasks, opt, emit); err != nil {
			// Dispatcher errors are configuration/protocol bugs (the
			// dispatcher already degrades through crashed workers on its
			// own); surface them loudly rather than silently re-running.
			panic(fmt.Sprintf("campaign: fleet dispatch of %q failed: %v", opt.Family, err))
		}
		return
	}

	pending := len(tasks) - len(opt.SkipDone)
	jobs := opt.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > pending {
		jobs = pending
	}
	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				emit(runTask(tasks[i], i, opt))
			}
		}()
	}
	for i := range tasks {
		if !opt.SkipDone[i] {
			idx <- i
		}
	}
	close(idx)
	wg.Wait()
}

// RunOne executes a single cell of a matrix exactly as the in-process pool
// would: same seed derivation, retry/perturbation rules and watchdog
// machinery. Fleet workers call it per dispatched index, which is what
// makes fleet records bit-identical to in-process ones.
func RunOne(t Task, index int, opt ExecOptions) RunRecord {
	return runTask(t, index, opt)
}

// runTask executes one cell through the bounded retry loop: each failed
// attempt (panic or watchdog kill) is re-run with a perturbed seed up to
// opt.Retries times, with doubling backoff between attempts. An abandoned
// attempt — one the watchdog canceled but that never unwound — ends the
// cell immediately (see ExecOptions.Retries).
func runTask(t Task, index int, opt ExecOptions) RunRecord {
	base := DeriveSeed(opt.BaseSeed, t.SeedIndex)
	var rec RunRecord
	for attempt := 0; ; attempt++ {
		var abandoned bool
		rec, abandoned = runAttempt(t, index, PerturbSeed(base, attempt), attempt, opt)
		rec.Attempts = attempt + 1
		if rec.Err == "" || abandoned || attempt >= opt.Retries {
			return rec
		}
		if opt.RetryBackoff > 0 {
			time.Sleep(opt.RetryBackoff << attempt)
		}
	}
}

// runAttempt executes one attempt of one cell. Without a watchdog it runs
// on the caller's goroutine — the pre-hardening behavior, zero overhead.
// With one, the attempt runs on its own goroutine while this one monitors
// wall time and virtual-clock progress, cancels on a breach, and abandons
// the goroutine if the attempt ignores cancellation past the grace period
// (abandoned is then true and the record marked TimedOut).
func runAttempt(t Task, index int, seed int64, attempt int, opt ExecOptions) (RunRecord, bool) {
	wd := opt.Watchdog
	tc := &TaskCtx{Seed: seed, Attempt: attempt, Shards: opt.Shards}
	if !wd.enabled() {
		return execAttempt(t, index, tc), false
	}
	resCh := make(chan RunRecord, 1) // buffered: an abandoned attempt's send must not block
	go func() {
		resCh <- execAttempt(t, index, tc)
	}()

	start := time.Now()
	ticker := time.NewTicker(wd.poll())
	defer ticker.Stop()
	// The timeout has its own timer, so a budget below the poll interval is
	// enforced at its value, not at the first tick after it.
	var deadline <-chan time.Time
	if wd.Timeout > 0 {
		tm := time.NewTimer(wd.Timeout)
		defer tm.Stop()
		deadline = tm.C
	}
	lastProgress, lastChange := int64(-1), start
	for {
		select {
		case rec := <-resCh:
			return rec, false
		case <-deadline:
		case <-ticker.C:
		}
		now := time.Now()
		var reason string
		if wd.Timeout > 0 && now.Sub(start) >= wd.Timeout {
			reason = fmt.Sprintf("wall-clock timeout after %v", wd.Timeout)
		} else if wd.Stall > 0 {
			if p, n := tc.progress(); n > 0 {
				if p != lastProgress {
					lastProgress, lastChange = p, now
				} else if now.Sub(lastChange) >= wd.Stall {
					reason = fmt.Sprintf("sim-time stall: virtual clock stuck at %v for %v",
						time.Duration(p), wd.Stall)
				}
			}
		}
		if reason == "" {
			continue
		}
		tc.cancel(reason)
		select {
		case rec := <-resCh:
			// The attempt unwound cooperatively; its own recover already
			// classified the cancellation panic as a timeout.
			return rec, false
		case <-time.After(wd.grace()):
			rec := RunRecord{
				Name: t.Name, Index: index, Seed: seed, Params: t.Params,
				TimedOut: true,
				Err:      "watchdog: " + reason + " (attempt unresponsive, goroutine abandoned)",
				WallMs:   float64(time.Since(start).Nanoseconds()) / 1e6,
			}
			return rec, true
		}
	}
}

// execAttempt runs Task.Run once, capturing panics so a failing cell
// reports an error in its record instead of killing the whole grid. A
// panic carrying a CancelReason (the simulator's cooperative-cancellation
// unwind) marks the record TimedOut rather than failed-with-a-bug.
func execAttempt(t Task, index int, tc *TaskCtx) (rec RunRecord) {
	rec = RunRecord{
		Name:   t.Name,
		Index:  index,
		Seed:   tc.Seed,
		Params: t.Params,
	}
	start := time.Now()
	defer func() {
		wall := time.Since(start)
		rec.WallMs = float64(wall.Nanoseconds()) / 1e6
		if p := recover(); p != nil {
			rec.Result = nil
			if cr, ok := p.(interface{ CancelReason() string }); ok {
				rec.TimedOut = true
				rec.Err = "watchdog: " + cr.CancelReason()
			} else {
				rec.Err = fmt.Sprintf("panic: %v", p)
			}
			return
		}
		if ec, ok := rec.Result.(EventCounter); ok {
			rec.Events = ec.EventCount()
			if s := wall.Seconds(); s > 0 {
				rec.EventsPerSec = float64(rec.Events) / s
			}
		}
		if mr, ok := rec.Result.(MetricsReporter); ok {
			rec.Metrics = mr.Metrics()
		}
	}()
	rec.Result = t.Run(tc)
	return rec
}
