package sim

import (
	"fmt"
	"time"
)

// This file holds the fast-forward (epoch-skip) hooks of the slab scheduler
// and the sharded coordinator. A fast-forward epoch freezes the packet world
// at a quiescent instant and advances the clock by delta in one jump: every
// pending event keeps its relative firing order and distance from "now", so
// when packet mode resumes, the frozen world continues exactly as it would
// have — just translated in time. The analytic progress made during the
// epoch (cwnd growth, AQM probability, virtual throughput) is patched in by
// the ff engine on top of this shift.

// ShiftPending advances the virtual clock by delta and moves every pending
// event (one-shot and recurring alike) forward by the same amount. The event
// heap and the lane-head heap hold their keys inline and each lane's ring
// holds its events, so this is one pass over each heap array plus one over
// each ring; a uniform shift preserves the (at, seq) order — within each
// heap, along every ring, between a lane-head key and its ring head, and
// between the two roots — so no re-heapify is needed and the post-shift pop
// order is exactly the pre-shift pop order.
// It must only be called between Step/RunUntil calls (no event mid-flight);
// negative deltas would break causality and panic.
func (s *Simulator) ShiftPending(delta time.Duration) {
	if delta < 0 {
		panic(fmt.Sprintf("sim: ShiftPending with negative delta %v", delta))
	}
	if delta == 0 {
		return
	}
	for i := range s.heap {
		s.heap[i].at += delta
	}
	for i := range s.heads {
		s.heads[i].at += delta
	}
	for _, ln := range s.lanes {
		ln.shift(delta)
	}
	s.now += delta
	s.nowAtomic.Store(int64(s.now))
}

// ShiftPending advances the coordinator's barrier clock and every domain by
// delta: each domain's scheduler shifts uniformly, and the pending
// cross-domain arrivals shift with them so the mailbox invariant (a delivery
// event fires exactly at its heap minimum's arrival time) keeps holding.
// It must only be called between RunUntil calls, when every domain worker is
// parked and all outboxes have been drained by the final fixpoint exchange.
func (c *Coordinator) ShiftPending(delta time.Duration) {
	if delta < 0 {
		panic(fmt.Sprintf("sim: ShiftPending with negative delta %v", delta))
	}
	if delta == 0 {
		return
	}
	for _, d := range c.domains {
		for i := range d.arr {
			d.arr[i].at += delta
		}
		for dst := range d.out {
			if len(d.out[dst]) != 0 {
				// Outboxes drain at every barrier; RunUntil's fixpoint loop
				// guarantees they are empty between calls.
				panic("sim: ShiftPending with undrained outbox")
			}
		}
		d.sim.ShiftPending(delta)
	}
	c.setNow(c.now + delta)
}
