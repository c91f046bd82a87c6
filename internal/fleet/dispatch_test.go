package fleet

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// drained reports whether every cell has its final record.
func (s *dispatchState) drained() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// TestDispatchStateLastWorkerDeath pins the edge the cond-var queue makes
// easy to get wrong: the last live worker dies holding a cell while the
// queue is non-empty. Nobody is left to take() — the requeued cell must be
// at the front of remaining() so the in-process fallback runs it first,
// and remaining() must hold every unfinished cell exactly once.
func TestDispatchStateLastWorkerDeath(t *testing.T) {
	st := newDispatchState(4, nil)
	i, ok := st.take()
	if !ok || i != 0 {
		t.Fatalf("take = %d,%v; want 0,true", i, ok)
	}
	// The only worker dies mid-cell; budget allows a re-dispatch.
	requeue, n := st.crashed(i, 1)
	if !requeue || n != 1 {
		t.Fatalf("crashed = %v,%d; want true,1", requeue, n)
	}
	rem := st.remaining()
	if len(rem) != 4 || rem[0] != 0 || rem[1] != 1 || rem[2] != 2 || rem[3] != 3 {
		t.Fatalf("remaining = %v; want [0 1 2 3] (crashed cell re-dispatched first)", rem)
	}
	if st.drained() {
		t.Fatal("drained with 4 cells outstanding")
	}
}

// TestDispatchStateBudgetExhaustionRace races four driver loops over one
// cell whose every dispatch "crashes" with a zero retry budget: exactly
// two dispatches may happen (initial + one re-dispatch), the exhausting
// driver must finish the cell, and every other driver must unblock from
// take() with false instead of deadlocking on the empty-but-outstanding
// queue.
func TestDispatchStateBudgetExhaustionRace(t *testing.T) {
	st := newDispatchState(1, nil)

	var wg sync.WaitGroup
	var dispatches atomic.Int32
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := st.take()
				if !ok {
					return
				}
				dispatches.Add(1)
				if requeue, _ := st.crashed(i, 0); !requeue {
					st.finish() // the error record's emit happens here in a real driver
				}
			}
		}()
	}

	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatal("drivers deadlocked after crash-budget exhaustion")
	}

	if n := dispatches.Load(); n != 2 {
		t.Errorf("cell dispatched %d times, want 2 (initial + one re-dispatch)", n)
	}
	if n := st.crashCount(0); n != 2 {
		t.Errorf("crashCount = %d, want 2", n)
	}
	if !st.drained() {
		t.Error("done channel not closed after the budget-exhausted finish")
	}
	if rem := st.remaining(); len(rem) != 0 {
		t.Errorf("remaining = %v after drain, want empty", rem)
	}
}

// TestDispatchStateRemainingOrdering checks remaining() preserves
// dispatch order: untaken cells in index order, with requeued crashers at
// the front (they were in flight, so they are the most urgent to finish).
func TestDispatchStateRemainingOrdering(t *testing.T) {
	st := newDispatchState(5, nil)
	if i, _ := st.take(); i != 0 {
		t.Fatalf("first take = %d, want 0", i)
	}
	if i, _ := st.take(); i != 1 {
		t.Fatalf("second take = %d, want 1", i)
	}
	st.crashed(1, 5) // requeued at front
	rem := st.remaining()
	want := []int{1, 2, 3, 4}
	if len(rem) != len(want) {
		t.Fatalf("remaining = %v, want %v", rem, want)
	}
	for k := range want {
		if rem[k] != want[k] {
			t.Fatalf("remaining = %v, want %v", rem, want)
		}
	}
}

// TestDispatchStateSkipDone pins the resume contract: skipped cells never
// enter the queue, and a fully resumed grid is born drained.
func TestDispatchStateSkipDone(t *testing.T) {
	st := newDispatchState(4, map[int]bool{0: true, 2: true})
	if i, ok := st.take(); !ok || i != 1 {
		t.Fatalf("take = %d,%v; want 1,true", i, ok)
	}
	if i, ok := st.take(); !ok || i != 3 {
		t.Fatalf("take = %d,%v; want 3,true", i, ok)
	}
	st.finish()
	st.finish()
	if !st.drained() {
		t.Fatal("not drained after finishing both unskipped cells")
	}

	all := newDispatchState(3, map[int]bool{0: true, 1: true, 2: true})
	if !all.drained() {
		t.Fatal("fully skipped grid should be drained at birth")
	}
	if _, ok := all.take(); ok {
		t.Fatal("take succeeded on a fully skipped grid")
	}
}
