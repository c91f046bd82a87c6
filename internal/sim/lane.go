package sim

import (
	"time"

	"pi2/internal/packet"
)

// A Lane is the event queue of a monotone source: one whose firing times
// never decrease from one scheduling call to the next, such as a link
// serializer (the next completion is after the current one) or a constant
// delay pipe (now + d is non-decreasing because now is). Its events wait in a
// FIFO ring that the lane owns outright: no lane event has a slab slot or a
// heap entry. The simulator keeps each non-empty lane's head key in a small
// heap of lane heads beside the event heap, and Step fires whichever of the
// two roots is smaller on (at, seq) — so a thousand in-flight ACKs on one
// return path cost the event heap nothing, and a lane event never re-keys a
// heap of timers.
//
// The fire order is exactly that of Simulator.At: every lane event takes its
// seq from the simulator's one counter, and a ring in which both at and seq
// only grow is sorted on (at, seq), so its head is its minimum and the
// smaller of the two roots is the global one. A call whose time is below the
// lane's tail cannot join the ring; it is scheduled on the event heap like any
// other event, so misuse costs speed, never order. Lane events have no Timer:
// they cannot be stopped or moved.
//
// A lane event may carry one packet (AfterPacket), which its callback reads
// with Packet while it runs; the ring slot holds it, so a source whose
// packets travel a constant delay needs no queue of its own.
type Lane struct {
	s *Simulator
	// ring[head&mask : tail&mask] are the lane's events in firing order;
	// len(ring) is a power of two and head, tail are free-running counters.
	// While a lane event's callback runs it is still ring[head].
	ring       []laneEvent
	mask       uint32
	head, tail uint32
	idx        int32 // index in Simulator.lanes, which lane-head keys carry
}

// laneEvent is one queued lane event; (at, seq) is its lane-head key when it
// becomes the head.
type laneEvent struct {
	at  time.Duration
	seq uint64
	fn  Event
	pkt *packet.Packet
}

// laneMinRing is a fresh lane's ring size: a serializer holds one event.
const laneMinRing = 4

// NewLane returns a private lane for one monotone source.
func (s *Simulator) NewLane() *Lane {
	ln := &Lane{s: s, idx: int32(len(s.lanes))}
	s.lanes = append(s.lanes, ln)
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
// event heap.
func (l *Lane) At(at time.Duration, fn Event) { l.push(at, fn, nil) }

// After schedules fn delay from now on the lane. Negative delays panic.
func (l *Lane) After(delay time.Duration, fn Event) { l.push(l.s.now+delay, fn, nil) }

// AfterPacket schedules fn delay from now on the lane, carrying p: while fn
// runs, Packet returns p. The lane only holds the pointer: the packet's
// owner is whoever reads it back. An event that carries a packet cannot fall back to
// the event heap, whose slots hold no packet, so a delay that would put it
// below the lane's tail panics.
func (l *Lane) AfterPacket(delay time.Duration, p *packet.Packet, fn Event) {
	l.push(l.s.now+delay, fn, p)
}

// Packet returns the packet carried by the lane event whose callback is
// running (nil if it carries none). It panics anywhere else: outside a
// callback, or inside an event that is not this lane's.
func (l *Lane) Packet() *packet.Packet {
	if l.s.firing != l {
		panic("sim: Lane.Packet read outside the lane's running event")
	}
	return l.ring[l.head&l.mask].pkt
}

func (l *Lane) push(at time.Duration, fn Event, p *packet.Packet) {
	s := l.s
	s.checkNotPast(at)
	n := l.tail - l.head
	if n > 0 && at < l.ring[(l.tail-1)&l.mask].at {
		if p != nil {
			panic("sim: packet-carrying lane event below the lane's tail")
		}
		s.schedule(at, fn, 0)
		return
	}
	if int(n) == len(l.ring) {
		l.grow()
	}
	l.ring[l.tail&l.mask] = laneEvent{at: at, seq: s.seq, fn: fn, pkt: p}
	l.tail++
	if n == 0 {
		s.pushHead(entry{at: at, seq: s.seq, idx: l.idx})
	}
	s.seq++
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

// fire runs the lane's head event, already the simulator's global minimum
// and the root of the lane-head heap, then pops it and re-keys the root to
// the lane's next event, or removes the root if the lane drained.
func (s *Simulator) fire(l *Lane) {
	s.firing = l
	l.ring[l.head&l.mask].fn()
	s.firing = nil
	// fn may have grown the ring, so the head is only addressed again now.
	l.ring[l.head&l.mask] = laneEvent{}
	l.head++
	if l.head == l.tail {
		s.popHead()
		return
	}
	next := &l.ring[l.head&l.mask]
	s.heads[0].at, s.heads[0].seq = next.at, next.seq
	s.headDown()
}

// --- the lane-head heap ---
//
// heads is a binary min-heap on (at, seq) of the non-empty lanes' head keys.
// Unlike the event heap it needs no positions: the only key that ever changes
// or leaves is the root's (the lane that just fired), and a new key enters
// only when a lane fills. A key pushed while a lane event runs is after that
// event, so the running lane stays at the root until fire re-keys it.

// pushHead adds the head key of a lane that just filled.
func (s *Simulator) pushHead(e entry) {
	s.heads = append(s.heads, e)
	h := s.heads
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
}

// popHead removes the root, whose lane just drained.
func (s *Simulator) popHead() {
	last := len(s.heads) - 1
	s.heads[0] = s.heads[last]
	s.heads = s.heads[:last]
	if last > 0 {
		s.headDown()
	}
}

// headDown sifts the root down to where its key belongs.
func (s *Simulator) headDown() {
	h := s.heads
	n := len(h)
	i := 0
	e := h[0]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].before(&h[c]) {
			c++
		}
		if !h[c].before(&e) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = e
}
