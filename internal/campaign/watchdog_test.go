package campaign

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pi2/internal/sim"
)

// fakeSim stands in for *sim.Simulator in watchdog tests: a Canceler whose
// virtual clock the test controls. Spinning tasks poll canceled and unwind
// with a cancelPanic, mimicking sim.Step's cooperative-cancellation check.
type fakeSim struct {
	canceled atomic.Bool
	reason   atomic.Value // string
	now      atomic.Int64
}

func (f *fakeSim) Cancel(reason string) {
	f.reason.Store(reason)
	f.canceled.Store(true)
}

func (f *fakeSim) NowNanos() int64 { return f.now.Load() }

// cancelPanic mirrors sim.Canceled: the marker interface execAttempt
// classifies as a watchdog timeout.
type cancelPanic struct{ reason string }

func (c cancelPanic) CancelReason() string { return c.reason }

// spinUntilCanceled busy-loops like a wedged-but-cooperative simulation:
// virtual time may or may not advance, and the loop unwinds as soon as the
// watchdog cancels it.
func spinUntilCanceled(f *fakeSim, advance bool) {
	for !f.canceled.Load() {
		if advance {
			f.now.Add(int64(time.Millisecond))
		}
		time.Sleep(time.Millisecond)
	}
	panic(cancelPanic{reason: f.reason.Load().(string)})
}

// TestWatchdogTimeoutRetryPartialGrid is the headline robustness scenario:
// one cell hangs on its first attempt, is killed by the wall-clock watchdog,
// retried with a perturbed seed, and succeeds — while the rest of the grid
// completes untouched. The grid returns a full set of records either way.
func TestWatchdogTimeoutRetryPartialGrid(t *testing.T) {
	var seeds [2]int64
	tasks := []Task{
		{Name: "healthy", SeedIndex: 0, Run: func(tc *TaskCtx) any { return "ok" }},
		{Name: "hangs-once", SeedIndex: 1, Run: func(tc *TaskCtx) any {
			seeds[tc.Attempt] = tc.Seed
			if tc.Attempt == 0 {
				f := &fakeSim{}
				tc.Watch(f)
				spinUntilCanceled(f, true) // virtual clock advances: no stall, pure timeout
			}
			return "recovered"
		}},
		{Name: "healthy2", SeedIndex: 2, Run: func(tc *TaskCtx) any { return "ok" }},
	}
	recs := Execute(tasks, ExecOptions{
		Jobs: 2, BaseSeed: 7,
		Watchdog: Watchdog{Timeout: 100 * time.Millisecond, Poll: 5 * time.Millisecond},
		Retries:  1,
	})
	if len(recs) != 3 {
		t.Fatalf("%d records", len(recs))
	}
	for _, i := range []int{0, 2} {
		if recs[i].Err != "" || recs[i].Attempts != 1 {
			t.Errorf("healthy cell %d: err=%q attempts=%d", i, recs[i].Err, recs[i].Attempts)
		}
	}
	hung := recs[1]
	if hung.Err != "" {
		t.Fatalf("retried cell still failed: %q", hung.Err)
	}
	if hung.Attempts != 2 {
		t.Errorf("attempts %d, want 2", hung.Attempts)
	}
	if hung.Result != "recovered" {
		t.Errorf("result %v", hung.Result)
	}
	base := DeriveSeed(7, 1)
	if seeds[0] != base {
		t.Errorf("attempt 0 seed %d, want unperturbed %d", seeds[0], base)
	}
	if seeds[1] != PerturbSeed(base, 1) || seeds[1] == seeds[0] {
		t.Errorf("attempt 1 seed %d, want PerturbSeed(%d,1)=%d", seeds[1], base, PerturbSeed(base, 1))
	}
}

// TestWatchdogTimeoutBelowPoll: a budget shorter than the poll interval is
// enforced at its own value. The cell would finish in about 10 ms, well
// before the first 20 ms tick, so only a deadline of its own stops it.
func TestWatchdogTimeoutBelowPoll(t *testing.T) {
	tasks := []Task{{Name: "slow", Run: func(tc *TaskCtx) any {
		f := &fakeSim{}
		tc.Watch(f)
		for end := time.Now().Add(10 * time.Millisecond); time.Now().Before(end); {
			if f.canceled.Load() {
				panic(cancelPanic{reason: f.reason.Load().(string)})
			}
			f.now.Add(int64(time.Millisecond))
			time.Sleep(100 * time.Microsecond)
		}
		return "done"
	}}}
	recs := Execute(tasks, ExecOptions{Jobs: 1, BaseSeed: 1, Watchdog: Watchdog{Timeout: time.Millisecond}})
	if rec := recs[0]; !rec.TimedOut || !strings.Contains(rec.Err, "timeout") {
		t.Fatalf("a 10 ms cell under a 1 ms budget was not timed out: %+v", rec)
	}
}

// TestWatchdogStallDetection: a cell whose watched virtual clock stops
// advancing is killed by stall detection even though wall time is within
// the (absent) timeout budget.
func TestWatchdogStallDetection(t *testing.T) {
	tasks := []Task{{Name: "stalled", Run: func(tc *TaskCtx) any {
		f := &fakeSim{}
		f.now.Store(int64(42 * time.Second)) // frozen forever
		tc.Watch(f)
		spinUntilCanceled(f, false)
		return nil
	}}}
	recs := Execute(tasks, ExecOptions{
		Jobs: 1, BaseSeed: 1,
		Watchdog: Watchdog{Stall: 60 * time.Millisecond, Poll: 5 * time.Millisecond},
	})
	rec := recs[0]
	if !rec.TimedOut {
		t.Fatalf("stalled cell not marked TimedOut: %+v", rec)
	}
	if !strings.Contains(rec.Err, "stall") {
		t.Errorf("error %q does not name the stall", rec.Err)
	}
	if rec.Attempts != 1 {
		t.Errorf("attempts %d", rec.Attempts)
	}
}

// TestWatchdogStallOnRealSimulator: a real simulator publishes its clock
// to NowNanos once every few hundred events, not on every one. One stuck at
// a single instant (an event rescheduling itself at Now forever) still reads
// as stalled and is cancelled, while one whose clock advances a nanosecond
// per event for longer than the stall window is left to finish.
func TestWatchdogStallOnRealSimulator(t *testing.T) {
	const busy = 300 * time.Millisecond
	tasks := []Task{
		{Name: "stuck", Run: func(tc *TaskCtx) any {
			s := sim.New(1)
			tc.Watch(s)
			var spin sim.Event
			spin = func() { s.At(s.Now(), spin) }
			s.At(5*time.Millisecond, spin)
			s.RunUntil(time.Hour)
			return "finished"
		}},
		{Name: "advancing", SeedIndex: 1, Run: func(tc *TaskCtx) any {
			s := sim.New(1)
			tc.Watch(s)
			start := time.Now()
			var tick sim.Timer
			tick = s.Every(time.Nanosecond, func() {
				if time.Since(start) > busy {
					tick.Stop()
				}
			})
			s.Run()
			return "finished"
		}},
	}
	recs := Execute(tasks, ExecOptions{
		Jobs: 1, BaseSeed: 1,
		Watchdog: Watchdog{Stall: busy / 3, Poll: 5 * time.Millisecond},
	})
	if rec := recs[0]; !rec.TimedOut || !strings.Contains(rec.Err, "stall") {
		t.Errorf("simulator stuck at one instant not flagged as stalled: %+v", rec)
	}
	if rec := recs[1]; rec.TimedOut || rec.Result != "finished" {
		t.Errorf("advancing simulator flagged: %+v", rec)
	}
}

// TestWatchdogNoStallWithoutWatchers: a slow cell that registers nothing via
// Watch must not be killed by stall detection — with no virtual clock to
// observe, "stalled" cannot be told from "busy".
func TestWatchdogNoStallWithoutWatchers(t *testing.T) {
	tasks := []Task{{Name: "slow", Run: func(tc *TaskCtx) any {
		time.Sleep(120 * time.Millisecond)
		return "done"
	}}}
	recs := Execute(tasks, ExecOptions{
		Jobs: 1, BaseSeed: 1,
		Watchdog: Watchdog{Stall: 30 * time.Millisecond, Poll: 5 * time.Millisecond},
	})
	if recs[0].Err != "" || recs[0].Result != "done" {
		t.Errorf("unwatched slow cell killed: %+v", recs[0])
	}
}

// TestWatchdogAbandonsUnresponsive: a cell that ignores cooperative
// cancellation past the grace period is abandoned — recorded as timed out
// and, critically, never retried (its goroutine is still wedged).
func TestWatchdogAbandonsUnresponsive(t *testing.T) {
	var attempts atomic.Int32
	release := make(chan struct{})
	defer close(release) // unwedge the leaked goroutine at test end
	tasks := []Task{{Name: "wedged", Run: func(tc *TaskCtx) any {
		attempts.Add(1)
		<-release // ignores cancellation entirely
		return nil
	}}}
	recs := Execute(tasks, ExecOptions{
		Jobs: 1, BaseSeed: 1,
		Watchdog: Watchdog{
			Timeout: 40 * time.Millisecond,
			Poll:    5 * time.Millisecond,
			Grace:   50 * time.Millisecond,
		},
		Retries: 3,
	})
	rec := recs[0]
	if !rec.TimedOut || !strings.Contains(rec.Err, "unresponsive") {
		t.Fatalf("abandoned cell not reported: %+v", rec)
	}
	if got := attempts.Load(); got != 1 {
		t.Errorf("abandoned cell ran %d attempts, want 1 (no retry of a wedged hang)", got)
	}
}

// TestRetryOnPanic: plain panics (not watchdog kills) are retried too, and
// a cell that keeps failing reports its last error after exhausting retries.
func TestRetryOnPanic(t *testing.T) {
	var runs atomic.Int32
	tasks := []Task{{Name: "flaky", Run: func(tc *TaskCtx) any {
		if runs.Add(1) < 3 {
			panic("transient")
		}
		return "third time lucky"
	}}}
	recs := Execute(tasks, ExecOptions{Jobs: 1, BaseSeed: 1, Retries: 2})
	if recs[0].Err != "" || recs[0].Result != "third time lucky" || recs[0].Attempts != 3 {
		t.Errorf("flaky cell: %+v", recs[0])
	}

	runs.Store(0)
	always := []Task{{Name: "doomed", Run: func(tc *TaskCtx) any {
		runs.Add(1)
		panic("permanent")
	}}}
	recs = Execute(always, ExecOptions{Jobs: 1, BaseSeed: 1, Retries: 2})
	if recs[0].Err == "" || !strings.Contains(recs[0].Err, "permanent") {
		t.Errorf("doomed cell err %q", recs[0].Err)
	}
	if recs[0].Attempts != 3 || runs.Load() != 3 {
		t.Errorf("doomed cell attempts=%d runs=%d, want 3", recs[0].Attempts, runs.Load())
	}
}

// TestPerturbSeedProperties: attempt 0 is the identity (first attempts are
// bit-identical to an unsupervised campaign); later attempts differ, are
// stable, and never produce the forbidden seed 0.
func TestPerturbSeedProperties(t *testing.T) {
	for _, seed := range []int64{1, 42, -7, 1 << 40} {
		if PerturbSeed(seed, 0) != seed {
			t.Errorf("PerturbSeed(%d, 0) != identity", seed)
		}
		seen := map[int64]bool{seed: true}
		for a := 1; a <= 5; a++ {
			s := PerturbSeed(seed, a)
			if s == 0 {
				t.Errorf("PerturbSeed(%d,%d) = 0", seed, a)
			}
			if s != PerturbSeed(seed, a) {
				t.Errorf("PerturbSeed(%d,%d) unstable", seed, a)
			}
			if seen[s] {
				t.Errorf("PerturbSeed(%d,%d) collides", seed, a)
			}
			seen[s] = true
		}
	}
}

// TestWatchCancelAfterVerdict: registering a Canceler after the cell was
// already canceled must cancel it immediately (the slow-construction race).
func TestWatchCancelAfterVerdict(t *testing.T) {
	tc := &TaskCtx{Seed: 1}
	tc.cancel("too late")
	f := &fakeSim{}
	tc.Watch(f)
	if !f.canceled.Load() {
		t.Fatal("late-registered canceler not canceled")
	}
	if got := f.reason.Load().(string); got != "too late" {
		t.Errorf("reason %q", got)
	}
}
