package sim

import "time"

// A Lane is the event queue of a monotone source: one whose firing times
// never decrease from one scheduling call to the next, such as a link
// serializer (the next completion is after the current one) or a constant
// delay pipe (now + d is non-decreasing because now is). Its events wait in a
// FIFO ring and only the ring's head is represented in the simulator's heap,
// by a single entry that Step re-keys to the next event after each firing —
// so a thousand in-flight ACKs on one return path cost the heap one entry,
// not a thousand.
//
// The fire order is exactly that of Simulator.At: every lane event takes its
// seq from the simulator's one counter, and a ring in which both at and seq
// only grow is sorted on (at, seq), so its head is its minimum and the heap
// minimum is the global one. A call whose time is below the lane's tail cannot
// join the ring; it is scheduled on the heap like any other event, so misuse
// costs speed, never order. Lane events have no Timer: they cannot be
// stopped or moved.
type Lane struct {
	s *Simulator
	// ring[head&mask : tail&mask] are the lane's events in firing order;
	// len(ring) is a power of two and head, tail are free-running counters.
	// While a lane event's callback runs it is still ring[head].
	ring       []laneEvent
	mask       uint32
	head, tail uint32
	idx        int32 // the slab slot the lane's heap entry points at
}

// laneEvent is one queued lane event; (at, seq) is its heap key when it
// becomes the head.
type laneEvent struct {
	at  time.Duration
	seq uint64
	fn  Event
}

// laneMinRing is a fresh lane's ring size: a serializer holds one event.
const laneMinRing = 4

// NewLane returns a private lane for one monotone source.
func (s *Simulator) NewLane() *Lane {
	idx := s.alloc()
	ln := &Lane{s: s, idx: idx}
	s.lanes = append(s.lanes, ln)
	sl := &s.slab[idx]
	sl.pos = noPos
	sl.lane = int32(len(s.lanes))
	return ln
}

// Lane returns the lane shared by every source that schedules a constant
// delay from now: their events interleave in one ring, still in (at, seq)
// order, because now+delay is non-decreasing whoever calls.
func (s *Simulator) Lane(delay time.Duration) *Lane {
	ln := s.delayLanes[delay]
	if ln == nil {
		if s.delayLanes == nil {
			s.delayLanes = make(map[time.Duration]*Lane)
		}
		ln = s.NewLane()
		s.delayLanes[delay] = ln
	}
	return ln
}

// Len reports the lane's queued events, counting one whose callback is
// running.
func (l *Lane) Len() int { return int(l.tail - l.head) }

// At schedules fn at an absolute virtual time, like Simulator.At (it panics
// before Now). A time below the lane's latest queued event falls back to the
// heap.
func (l *Lane) At(at time.Duration, fn Event) {
	s := l.s
	s.checkNotPast(at)
	n := l.tail - l.head
	if n > 0 && at < l.ring[(l.tail-1)&l.mask].at {
		s.schedule(at, fn, 0)
		return
	}
	if int(n) == len(l.ring) {
		l.grow()
	}
	l.ring[l.tail&l.mask] = laneEvent{at: at, seq: s.seq, fn: fn}
	l.tail++
	if n == 0 {
		s.push(entry{at: at, seq: s.seq, idx: l.idx})
	}
	s.seq++
}

// After schedules fn delay from now on the lane. Negative delays panic.
func (l *Lane) After(delay time.Duration, fn Event) {
	l.At(l.s.now+delay, fn)
}

// grow doubles the ring, moving the queued events to its front.
func (l *Lane) grow() {
	size := 2 * len(l.ring)
	if size == 0 {
		size = laneMinRing
	}
	ring := make([]laneEvent, size)
	n := l.tail - l.head
	for i := uint32(0); i < n; i++ {
		ring[i] = l.ring[(l.head+i)&l.mask]
	}
	l.ring, l.mask, l.head, l.tail = ring, uint32(size-1), 0, n
}

// shift moves every queued event forward by delta (ShiftPending).
func (l *Lane) shift(delta time.Duration) {
	for i := l.head; i != l.tail; i++ {
		l.ring[i&l.mask].at += delta
	}
}
