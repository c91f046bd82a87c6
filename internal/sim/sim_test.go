package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestEventsRunInTimeOrder(t *testing.T) {
	s := New(1)
	var got []time.Duration
	for _, d := range []time.Duration{5, 1, 3, 2, 4} {
		d := d * time.Millisecond
		s.After(d, func() { got = append(got, s.Now()) })
	}
	s.Run()
	if len(got) != 5 {
		t.Fatalf("ran %d events, want 5", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Errorf("events out of order: %v", got)
		}
	}
}

func TestSameInstantFIFO(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.After(time.Millisecond, func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-break not FIFO: %v", got)
		}
	}
}

func TestAfterNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s := New(1)
	s.After(-time.Second, func() {})
}

func TestTimerStop(t *testing.T) {
	s := New(1)
	ran := false
	tm := s.After(time.Millisecond, func() { ran = true })
	tm.Stop()
	s.Run()
	if ran {
		t.Error("stopped timer still fired")
	}
	// Stopping again (and stopping a zero Timer) must be safe.
	tm.Stop()
	var zero Timer
	zero.Stop()
	if zero.Active() {
		t.Error("zero Timer reports Active")
	}
}

func TestEveryTicksAndStops(t *testing.T) {
	s := New(1)
	n := 0
	var tm Timer
	tm = s.Every(10*time.Millisecond, func() {
		n++
		if n == 5 {
			tm.Stop()
		}
	})
	s.RunUntil(time.Second)
	if n != 5 {
		t.Errorf("ticked %d times, want 5", n)
	}
	if s.Now() != time.Second {
		t.Errorf("RunUntil left clock at %v", s.Now())
	}
}

func TestEveryZeroIntervalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Every(0) did not panic")
		}
	}()
	New(1).Every(0, func() {})
}

func TestRunUntilIncludesBoundary(t *testing.T) {
	s := New(1)
	ran := false
	s.At(time.Second, func() { ran = true })
	s.RunUntil(time.Second)
	if !ran {
		t.Error("event exactly at the boundary did not run")
	}
}

func TestRunUntilExcludesLater(t *testing.T) {
	s := New(1)
	ran := false
	s.At(time.Second+1, func() { ran = true })
	s.RunUntil(time.Second)
	if ran {
		t.Error("event after the boundary ran")
	}
	if s.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", s.Pending())
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New(1)
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 100 {
			s.After(time.Microsecond, recurse)
		}
	}
	s.After(0, recurse)
	s.Run()
	if depth != 100 {
		t.Errorf("depth = %d, want 100", depth)
	}
}

func TestMaxEventsGuard(t *testing.T) {
	s := New(1)
	s.MaxEvents = 10
	var loop func()
	loop = func() { s.After(time.Millisecond, loop) }
	s.After(0, loop)
	defer func() {
		if recover() == nil {
			t.Fatal("MaxEvents did not panic")
		}
	}()
	s.Run()
}

func TestRNGStreamsIndependent(t *testing.T) {
	a1 := New(7).RNG()
	// Taking a second stream first must not change the first stream's
	// draws for a fresh simulator with the same seed.
	s := New(7)
	b1 := s.RNG()
	_ = s.RNG()
	x, y := a1.Float64(), b1.Float64()
	if x != y {
		t.Errorf("first stream differs: %v vs %v", x, y)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []float64 {
		s := New(99)
		rng := s.RNG()
		var out []float64
		for i := 0; i < 50; i++ {
			d := time.Duration(rng.Int63n(int64(time.Second)))
			s.After(d, func() { out = append(out, rng.Float64()) })
		}
		s.Run()
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at %d", i)
		}
	}
}

// TestPropertyOrdering: for any set of non-negative delays, execution order
// is a sorted permutation of the scheduled times.
func TestPropertyOrdering(t *testing.T) {
	f := func(raw []uint32) bool {
		s := New(1)
		want := make([]time.Duration, 0, len(raw))
		got := make([]time.Duration, 0, len(raw))
		for _, r := range raw {
			d := time.Duration(r) * time.Microsecond
			want = append(want, d)
			s.After(d, func() { got = append(got, s.Now()) })
		}
		s.Run()
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(2))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	s := New(1)
	if s.Step() {
		t.Error("Step on empty queue returned true")
	}
	s.After(0, func() {})
	if !s.Step() {
		t.Error("Step with pending event returned false")
	}
	if s.Processed() != 1 {
		t.Errorf("Processed = %d, want 1", s.Processed())
	}
}

func TestCancelledEventsSkippedByPending(t *testing.T) {
	s := New(1)
	t1 := s.After(time.Millisecond, func() {})
	s.After(2*time.Millisecond, func() {})
	t1.Stop()
	if got := s.Pending(); got != 1 {
		t.Errorf("Pending = %d, want 1", got)
	}
	checkHeap(t, s)
}

// TestPendingCounterTracksLifecycle exercises Pending — the heap's length,
// since the heap holds exactly the live events — through schedule / cancel /
// double-cancel / fire / post-fire-cancel transitions.
func TestPendingCounterTracksLifecycle(t *testing.T) {
	s := New(1)
	timers := make([]Timer, 10)
	for i := range timers {
		timers[i] = s.After(time.Duration(i+1)*time.Millisecond, func() {})
	}
	if got := s.Pending(); got != 10 {
		t.Fatalf("Pending = %d, want 10", got)
	}
	timers[0].Stop() // cancel the heap top
	timers[5].Stop() // cancel from the middle of the heap
	timers[5].Stop() // double-stop must not unlink a second entry
	if got := s.Pending(); got != 8 {
		t.Fatalf("after stops: Pending = %d, want 8", got)
	}
	checkHeap(t, s)
	for i := 0; i < 3; i++ { // fire three events
		if !s.Step() {
			t.Fatal("Step found nothing to run")
		}
	}
	if got := s.Pending(); got != 5 {
		t.Fatalf("after 3 steps: Pending = %d, want 5", got)
	}
	timers[1].Stop() // already fired: must be a no-op
	if got := s.Pending(); got != 5 {
		t.Fatalf("after stopping fired timer: Pending = %d, want 5", got)
	}
	checkHeap(t, s)
	s.Run()
	if got := s.Pending(); got != 0 {
		t.Fatalf("after Run: Pending = %d, want 0", got)
	}
}

// TestEveryStopInsideOwnCallback: an Every ticker stopped from inside its
// own callback must not reschedule, and the queue must fully drain.
func TestEveryStopInsideOwnCallback(t *testing.T) {
	s := New(1)
	n := 0
	var tm Timer
	tm = s.Every(10*time.Millisecond, func() {
		n++
		if n == 3 {
			tm.Stop()
			tm.Stop() // second stop from the same callback: still safe
		}
	})
	s.RunUntil(time.Second)
	if n != 3 {
		t.Errorf("ticked %d times, want 3", n)
	}
	if got := s.Pending(); got != 0 {
		t.Errorf("Pending = %d after self-stop, want 0", got)
	}
	tm.Stop() // stop after drain: no-op
	if got := s.Pending(); got != 0 {
		t.Errorf("Pending = %d, want 0", got)
	}
}

// TestEveryStopFromEventAtSameTimestamp pins the same-instant semantics both
// ways. Events at one timestamp fire in scheduling order: a tick's next item
// is created only when the tick fires, so a stopper scheduled earlier for
// the same instant runs relative to the tick according to its seq.
func TestEveryStopFromEventAtSameTimestamp(t *testing.T) {
	// Case 1: ticker created first. At t=10ms the tick (scheduled at t=0)
	// has the lower seq, so it fires before the stopper: one tick lands,
	// then the stopper cancels the rescheduled tick.
	s := New(1)
	n := 0
	tm := s.Every(10*time.Millisecond, func() { n++ })
	s.At(10*time.Millisecond, func() { tm.Stop() })
	s.RunUntil(time.Second)
	if n != 1 {
		t.Errorf("ticker-first: ticked %d times, want 1", n)
	}
	if got := s.Pending(); got != 0 {
		t.Errorf("ticker-first: Pending = %d, want 0", got)
	}

	// Case 2: stopper scheduled before the ticker exists. Its seq is lower
	// than the first tick's, so at t=10ms it cancels the tick before the
	// tick can fire: zero ticks.
	s2 := New(1)
	m := 0
	var tm2 Timer
	s2.At(10*time.Millisecond, func() { tm2.Stop() })
	tm2 = s2.Every(10*time.Millisecond, func() { m++ })
	s2.RunUntil(time.Second)
	if m != 0 {
		t.Errorf("stopper-first: ticked %d times, want 0", m)
	}
	if got := s2.Pending(); got != 0 {
		t.Errorf("stopper-first: Pending = %d, want 0", got)
	}
}

// TestStopDrainsDeadHeapTop: cancelling the earliest events removes them
// from the heap there and then — nothing dead is left at the top (or anywhere)
// for Step or peek to skip over.
func TestStopDrainsDeadHeapTop(t *testing.T) {
	s := New(1)
	var head []Timer
	for i := 0; i < 5; i++ {
		head = append(head, s.After(time.Millisecond, func() {}))
	}
	ran := false
	s.After(time.Hour, func() { ran = true })
	for _, tm := range head {
		tm.Stop()
		checkHeap(t, s)
	}
	if got := len(s.heap); got != 1 {
		t.Fatalf("heap holds %d entries after the stops, want 1", got)
	}
	if at, ok := s.peek(); !ok || at != time.Hour {
		t.Fatalf("peek = %v, %v; want the surviving event", at, ok)
	}
	if !s.Step() || !ran {
		t.Error("surviving event did not run first")
	}
}

// TestTimerChurnLeavesNothingBehind: the retransmission-timer pattern — a
// far-future timer re-armed or replaced on every ACK, almost never fired —
// must keep heap and slab at the live working set, however long it runs.
func TestTimerChurnLeavesNothingBehind(t *testing.T) {
	s := New(1)
	rto := s.After(200*time.Millisecond, nop)
	delack := s.After(40*time.Millisecond, nop)
	for i := 0; i < 10000; i++ {
		s.After(time.Microsecond, nop)
		s.Step() // the "ACK"
		if !rto.Reset(s.Now() + 200*time.Millisecond) {
			t.Fatal("pending timer was not re-armed")
		}
		delack.Stop()
		delack = s.After(40*time.Millisecond, nop)
	}
	checkHeap(t, s)
	if len(s.heap) != 2 || len(s.slab) > 4 {
		t.Errorf("after churn: %d heap entries, %d slab slots; want 2 and at most 4", len(s.heap), len(s.slab))
	}
}

// TestTimerActiveLifecycle pins Active across schedule / stop / fire.
func TestTimerActiveLifecycle(t *testing.T) {
	s := New(1)
	t1 := s.After(time.Millisecond, func() {})
	if !t1.Active() {
		t.Error("pending timer not Active")
	}
	t1.Stop()
	if t1.Active() {
		t.Error("stopped timer still Active")
	}
	t2 := s.After(time.Millisecond, func() {})
	s.Run()
	if t2.Active() {
		t.Error("fired timer still Active")
	}
}

// TestStaleHandleDoesNotTouchRecycledSlot: a Timer held past its event's
// lifetime must not cancel the slot's next tenant (generation check).
func TestStaleHandleDoesNotTouchRecycledSlot(t *testing.T) {
	s := New(1)
	t1 := s.After(time.Millisecond, func() {})
	s.Run() // t1 fires; its slot goes to the free list
	ran := false
	t2 := s.After(time.Millisecond, func() { ran = true }) // reuses the slot
	t1.Stop()                                              // stale handle: must be a no-op
	if !t2.Active() {
		t.Fatal("stale Stop cancelled the slot's new tenant")
	}
	s.Run()
	if !ran {
		t.Fatal("recycled slot's event did not run")
	}
}

// TestSlabRecyclesSlots: a schedule/fire churn loop must not grow the slab
// past the peak number of concurrently pending events.
func TestSlabRecyclesSlots(t *testing.T) {
	s := New(1)
	for i := 0; i < 10000; i++ {
		s.After(time.Microsecond, func() {})
		s.Step()
	}
	if got := len(s.slab); got > 4 {
		t.Errorf("slab grew to %d slots for 1 concurrent event", got)
	}
}

// TestSteadyStateSchedulingDoesNotAllocate pins the zero-alloc property the
// scheduler exists for: once slab and heap have grown to the working set,
// schedule/fire/reschedule cycles allocate nothing.
func TestSteadyStateSchedulingDoesNotAllocate(t *testing.T) {
	s := New(1)
	// Warm up: grow slab, heap and free list to the working set.
	for i := 0; i < 64; i++ {
		s.After(time.Duration(i)*time.Microsecond, nop)
	}
	s.Run()
	avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			s.After(time.Duration(i)*time.Microsecond, nop)
		}
		s.Run()
	})
	if avg != 0 {
		t.Errorf("steady-state schedule/fire allocates %.1f allocs per cycle, want 0", avg)
	}
}

// nop is package-level so scheduling it captures nothing.
func nop() {}

func TestCancelStopsRunWithReason(t *testing.T) {
	s := New(1)
	ticks := 0
	s.Every(time.Millisecond, func() {
		ticks++
		if ticks == 5 {
			s.Cancel("test verdict")
		}
	})
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("canceled run did not panic")
		}
		c, ok := p.(Canceled)
		if !ok {
			t.Fatalf("panic value %T, want sim.Canceled", p)
		}
		if c.Reason != "test verdict" {
			t.Errorf("reason %q", c.Reason)
		}
		if c.CancelReason() != c.Reason {
			t.Error("CancelReason does not echo the reason")
		}
		// The in-flight callback finishes before the unwind: exactly the
		// 5 ticks that ran, never a 6th.
		if ticks != 5 {
			t.Errorf("%d ticks ran after cancellation", ticks)
		}
	}()
	s.RunUntil(time.Second)
}

func TestNowNanosTracksVirtualClock(t *testing.T) {
	s := New(1)
	if got := s.NowNanos(); got != 0 {
		t.Fatalf("initial NowNanos %d", got)
	}
	var seen int64
	s.At(3*time.Millisecond, func() { seen = s.NowNanos() })
	s.RunUntil(10 * time.Millisecond)
	if seen != int64(3*time.Millisecond) {
		t.Errorf("NowNanos inside event %d, want 3ms", seen)
	}
	if got := s.NowNanos(); got != int64(10*time.Millisecond) {
		t.Errorf("NowNanos after RunUntil %d, want 10ms", got)
	}
}
