// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine keeps a virtual clock in integer nanoseconds (time.Duration)
// and a hand-specialized 4-ary min-heap event queue. Events scheduled for
// the same instant fire in the order they were scheduled, which keeps
// simulations fully deterministic for a given seed. All network components
// in this repository (links, AQMs, TCP endpoints, traffic sources) are
// driven from a single Simulator; nothing reads the wall clock.
//
// The scheduler is allocation-free in steady state: events live in a slab
// of inline structs with a free list (no container/heap interface boxing,
// no per-event pointer allocation), the heap entries carry their (at, seq)
// ordering key inline next to a small slab index, and Timer is a
// generation-checked value handle, so scheduling, firing, cancelling,
// re-arming and recurring ticks all recycle slots instead of allocating.
// The heap holds exactly the live events outside lanes: Stop unlinks its
// entry at once and Reset re-keys it in place, so nothing cancelled is ever
// sifted or popped.
// Sources whose firing times never decrease (a link serializer, a constant
// delay pipe) schedule through a Lane instead: a FIFO ring that owns its
// events, whose head waits in a small heap of lane heads beside the event
// heap, so lane traffic never sifts the timers (see lane.go).
// An owner of many timers (a group of TCP flows) registers one Router and
// schedules each timer with AtRoute and a small argument the slot carries,
// so it binds no closure per timer.
// Only slab/heap growth allocates, and that is amortized away once a
// simulation reaches its peak number of concurrently pending events.
package sim

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"pi2/internal/packet"
)

// Event is a closure to run at a simulated instant.
type Event func()

// slot is one scheduler entry in the slab: what to run, and where its
// ordering key sits in the heap. Free slots are tracked by index on the free
// list; gen is bumped every time a slot is recycled so a stale Timer handle
// can never touch the slot's next tenant. A routed event (AtRoute) has no fn:
// it runs its route's Router with arg. The struct is 32 bytes, half a cache
// line; TestSlotSize holds it there.
type slot struct {
	fn    Event
	every time.Duration // recurring interval (0 = one-shot)
	gen   uint32
	pos   int32 // heap position; noPos while executing or free, stoppedPos once stopped from its own callback
	route Route // the route a routed event runs through (0 = none: it runs fn)
	arg   int32 // the argument the route's Router receives
}

// entry is one heap element. The (at, seq) key lives here rather than in the
// slot, so a comparison reads two adjacent heap entries and never the slab.
type entry struct {
	at  time.Duration
	seq uint64 // tie-break: FIFO among equal timestamps
	idx int32  // the slot this key belongs to
}

// noPos marks a slot that is not in the heap (free or currently executing);
// stoppedPos marks an executing slot whose event was stopped from inside its
// own callback, so Step neither reschedules a recurring tick nor reports it
// Active.
const (
	noPos      = -1
	stoppedPos = -2
)

// Timer is a handle to a scheduled event; it can be cancelled or re-armed.
// It is a small value (not a pointer): copies are interchangeable, and the
// zero Timer is inert — Stop, Reset and Active on it are safe no-ops. A
// handle whose event already fired (or was stopped) is recognized by its
// generation and ignored, so holding a Timer past its event's lifetime is
// always safe.
type Timer struct {
	s   *Simulator
	idx int32
	gen uint32
}

// Stop cancels the timer. It is safe to call on an already-fired or
// already-stopped timer, and safe to call on a zero Timer — including from
// inside the timer's own callback (an Every ticker stopping itself).
func (t Timer) Stop() {
	s := t.s
	if s == nil {
		return
	}
	sl := &s.slab[t.idx]
	if sl.gen != t.gen {
		return
	}
	if sl.pos >= 0 {
		s.unlink(int(sl.pos))
		s.release(t.idx)
		return
	}
	// The callback is on the stack: Step recycles the slot when it returns,
	// and stoppedPos tells it not to reschedule a recurring tick.
	sl.pos = stoppedPos
}

// Reset moves a pending timer to fire at the absolute time at and reports
// whether it did. The event is ordered exactly as if it had been stopped and
// scheduled afresh with At (it takes a new place in the FIFO order among
// events at the same instant), but it keeps its slot, so the handle stays
// valid and nothing is allocated or left behind in the heap. A recurring
// timer keeps its interval. On a timer that is not pending — zero, fired,
// stopped, or executing its own callback — Reset does nothing and returns
// false; the caller schedules a new event instead. Like At, it panics when
// at is before Now.
func (t Timer) Reset(at time.Duration) bool {
	s := t.s
	if s == nil {
		return false
	}
	sl := &s.slab[t.idx]
	if sl.gen != t.gen || sl.pos < 0 {
		return false
	}
	s.checkNotPast(at)
	i := int(sl.pos)
	s.heap[i].at = at
	s.heap[i].seq = s.seq
	s.seq++
	s.fix(i)
	return true
}

// Active reports whether the timer's event is still pending or currently
// executing (i.e. Stop would have an effect on a pending event, or the
// callback is on the stack right now). It is false for the zero Timer and
// for handles whose event already fired or was stopped.
func (t Timer) Active() bool {
	if t.s == nil {
		return false
	}
	sl := &t.s.slab[t.idx]
	return sl.gen == t.gen && sl.pos != stoppedPos
}

// Simulator is a discrete-event scheduler with a virtual clock.
// The zero value is not usable; call New.
type Simulator struct {
	now  time.Duration
	slab []slot
	heap []entry // 4-ary min-heap on (at, seq); exactly the pending non-lane events
	free []int32 // recycled slab indices, LIFO
	seq  uint64
	rng  *rand.Rand

	// routes holds the registered Routers, indexed by Route (0 is unused,
	// so the zero Route means none), and freeRoutes the closed indices
	// NewRoute hands out again.
	routes     []route
	freeRoutes []Route

	// lanes holds every FIFO lane; delayLanes finds the shared lane of a
	// constant delay; heads is the heap of the non-empty lanes' head keys,
	// whose idx indexes lanes (see lane.go).
	lanes      []*Lane
	delayLanes map[time.Duration]*Lane
	heads      []entry

	// busy is set while an event's callback is on the stack, and firing is
	// its lane when it is a lane event.
	busy   bool
	firing *Lane

	// pool recycles this simulation's packets (see packet.Pool); keeping
	// it on the Simulator gives every component a shared per-run free list
	// without threading one through each constructor.
	pool packet.Pool

	// processed counts events executed, for diagnostics and run limits.
	processed uint64
	// MaxEvents aborts Run with a panic if exceeded (0 = unlimited).
	// It is a guard against accidentally unbounded simulations in tests.
	MaxEvents uint64

	// canceled is the cooperative-cancellation flag; it is the only
	// simulator state another goroutine may touch (the campaign watchdog
	// calls Cancel from its monitor goroutine). cancelMsg is written before
	// the flag's release-store, so the Step that observes the flag also
	// sees the reason.
	canceled  atomic.Bool
	cancelMsg string
	// nowAtomic publishes now to other goroutines (the watchdog's sim-time
	// stall detector) without a lock. Step stores it once every
	// publishEvery events, not on every event: an atomic store is a locked
	// instruction on amd64, which profiles put at 8 % of a packet-mode
	// cell's CPU when it ran per event.
	nowAtomic atomic.Int64
}

// publishEvery is how many events Step runs between publications of the
// clock to NowNanos (a power of two). Events cost well under a microsecond
// on average in every cell here (a fast-forward epoch, the one long event,
// publishes through ShiftPending), so the published clock lags the real one
// by well under a millisecond of wall time, far below any useful stall
// timeout.
const publishEvery = 256

// Canceled is the panic value Step raises after Cancel. It unwinds the
// simulation loop to whoever owns the run (the campaign engine recovers it
// and marks the cell timed-out instead of failed-with-a-bug).
type Canceled struct{ Reason string }

// CancelReason marks the panic as a cooperative cancellation; callers detect
// it structurally (interface{ CancelReason() string }) so packages that
// recover it need not import sim.
func (c Canceled) CancelReason() string { return c.Reason }

func (c Canceled) String() string { return "sim: canceled: " + c.Reason }

// Cancel requests that the simulation stop at the next event boundary: the
// next Step call panics with Canceled{Reason}. It is the one Simulator
// method that is safe to call from another goroutine; everything else is
// single-threaded. Cancel never interrupts an event callback mid-flight —
// a callback that loops forever can only be abandoned, not canceled.
func (s *Simulator) Cancel(reason string) {
	s.cancelMsg = reason
	s.canceled.Store(true)
}

// NowNanos returns the virtual clock in integer nanoseconds, readable from
// any goroutine. The campaign watchdog polls it to detect cells whose wall
// clock runs but whose virtual clock does not (a stuck control loop). It is
// the clock as published on the first of every publishEvery events, and
// exact once RunUntil, RunBefore, Run or ShiftPending returns.
func (s *Simulator) NowNanos() int64 { return s.nowAtomic.Load() }

// New returns a Simulator whose RNG streams derive from seed.
func New(seed int64) *Simulator {
	s := &Simulator{rng: rand.New(rand.NewSource(seed))}
	s.pool.Poison = packet.PoisonFreed
	return s
}

// Now returns the current virtual time.
func (s *Simulator) Now() time.Duration { return s.now }

// Processed reports how many events have executed so far.
func (s *Simulator) Processed() uint64 { return s.processed }

// PacketPool returns the simulation's packet free list.
func (s *Simulator) PacketPool() *packet.Pool { return &s.pool }

// RNG returns a new independent random stream seeded from the simulator's
// root RNG. Components should each take their own stream at construction so
// adding a component does not perturb the draws seen by others.
func (s *Simulator) RNG() *rand.Rand {
	return rand.New(rand.NewSource(s.rng.Int63()))
}

// alloc pops a free slot, growing the slab when the free list is empty.
func (s *Simulator) alloc() int32 {
	if n := len(s.free); n > 0 {
		idx := s.free[n-1]
		s.free = s.free[:n-1]
		return idx
	}
	s.slab = append(s.slab, slot{})
	return int32(len(s.slab) - 1)
}

// release recycles a slot. Bumping gen invalidates every outstanding Timer
// handle for the slot's previous tenancy (a 32-bit wrap would need four
// billion recycles of one slot while a stale handle is still held).
func (s *Simulator) release(idx int32) {
	sl := &s.slab[idx]
	if sl.route != 0 {
		s.routes[sl.route].pending--
	}
	*sl = slot{pos: noPos, gen: sl.gen + 1}
	s.free = append(s.free, idx)
}

// checkNotPast panics when at is before Now: an event there would break
// causality.
func (s *Simulator) checkNotPast(at time.Duration) {
	if at < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, s.now))
	}
}

// schedule allocates, fills and enqueues a slot.
func (s *Simulator) schedule(at time.Duration, fn Event, every time.Duration) Timer {
	s.checkNotPast(at)
	idx := s.alloc()
	sl := &s.slab[idx]
	sl.fn = fn
	sl.every = every
	s.push(entry{at: at, seq: s.seq, idx: idx})
	s.seq++
	return Timer{s: s, idx: idx, gen: sl.gen}
}

// At schedules fn at an absolute virtual time. Scheduling in the past
// (before Now) panics: it would break causality.
func (s *Simulator) At(t time.Duration, fn Event) Timer {
	return s.schedule(t, fn, 0)
}

// After schedules fn delay from now. Negative delays panic.
func (s *Simulator) After(delay time.Duration, fn Event) Timer {
	return s.schedule(s.now+delay, fn, 0)
}

// Every schedules fn every interval, starting one interval from now,
// until the returned Timer is stopped. fn observes the tick time via Now.
// The ticker reuses one slab slot for its whole lifetime: rescheduling
// after each tick allocates nothing.
func (s *Simulator) Every(interval time.Duration, fn Event) Timer {
	if interval <= 0 {
		panic("sim: Every interval must be positive")
	}
	return s.schedule(s.now+interval, fn, interval)
}

// A Router receives the events scheduled on its Route: each one calls Fire
// with the argument it was scheduled with. An owner of many timers (a group
// of TCP flows) registers one Router and routes each event by a small
// index, where binding a closure per timer would cost an allocation each.
type Router interface {
	Fire(arg int32)
}

// Route is the handle of a registered Router (NewRoute). The zero Route is
// none.
type Route uint32

// route is one registered Router and how many of its events are pending
// (scheduled, not yet fired or stopped; one that is running counts).
type route struct {
	r       Router
	pending int32
}

// NewRoute registers r and returns the Route that schedules events for it.
// A closed Route's index is reused.
func (s *Simulator) NewRoute(r Router) Route {
	if len(s.routes) == 0 {
		s.routes = append(s.routes, route{}) // index 0 is the zero Route
	}
	if n := len(s.freeRoutes); n > 0 {
		id := s.freeRoutes[n-1]
		s.freeRoutes = s.freeRoutes[:n-1]
		s.routes[id].r = r
		return id
	}
	s.routes = append(s.routes, route{r: r})
	return Route(len(s.routes) - 1)
}

// CloseRoute unregisters a route, which must have no pending event, so the
// simulator no longer holds its Router; the route's handle must not be used
// again. Owners whose lifetime ends before the simulation's (a finished
// short flow) close theirs, so a run does not keep every one alive.
func (s *Simulator) CloseRoute(r Route) {
	rt := s.openRoute(r)
	if rt.pending != 0 {
		panic(fmt.Sprintf("sim: CloseRoute with %d events pending", rt.pending))
	}
	rt.r = nil
	s.freeRoutes = append(s.freeRoutes, r)
}

// openRoute returns an open route's entry; it panics on any other handle.
func (s *Simulator) openRoute(r Route) *route {
	if r == 0 || int(r) >= len(s.routes) || s.routes[r].r == nil {
		panic(fmt.Sprintf("sim: route %d is not open", r))
	}
	return &s.routes[r]
}

// AtRoute schedules, at an absolute virtual time, an event that calls route
// r's Router with arg. It is an ordinary one-shot event with an ordinary
// Timer: it takes its place in the same-instant FIFO order exactly as At
// would, and Stop, Reset and Active treat it alike. Scheduling in the past
// panics.
func (s *Simulator) AtRoute(at time.Duration, r Route, arg int32) Timer {
	rt := s.openRoute(r)
	t := s.schedule(at, nil, 0)
	sl := &s.slab[t.idx]
	sl.route, sl.arg = r, arg
	rt.pending++
	return t
}

// Step executes the next pending event, if any, and reports whether one ran.
// That is the smaller on (at, seq) of the event heap's root and the lane-head
// heap's root.
//
// The event's key stays at its root while its callback runs: the callback
// can only schedule at or after Now with a later seq, so nothing it does can
// order before that root, and every sift it causes stops below it.
// Afterwards the root is re-keyed in place (a lane's next event, a recurring
// tick's next firing) and sifted down, or removed if it has no successor.
func (s *Simulator) Step() bool {
	if s.canceled.Load() {
		panic(Canceled{Reason: s.cancelMsg})
	}
	if s.busy {
		panic("sim: Step called from inside an event callback")
	}
	e, lane, ok := s.next()
	if !ok {
		return false
	}
	// Monotone-clock invariant: the queues must never yield an event before
	// the current time. At() rejects past scheduling, so a violation here
	// means the event queue itself is corrupted; the auditor-backed harness
	// relies on this holding unconditionally.
	if e.at < s.now {
		panic(fmt.Sprintf("sim: clock went backwards: next event at %v, now %v", e.at, s.now))
	}
	s.now = e.at
	s.processed++
	if s.processed%publishEvery == 1 {
		s.nowAtomic.Store(int64(e.at))
	}
	if s.MaxEvents > 0 && s.processed > s.MaxEvents {
		panic("sim: MaxEvents exceeded")
	}
	s.busy = true
	if lane {
		s.fire(s.lanes[e.idx])
		s.busy = false
		return true
	}
	sl := &s.slab[e.idx]
	sl.pos = noPos // executing: Stop marks it stopped, Reset refuses
	if sl.route != 0 {
		s.routes[sl.route].r.Fire(sl.arg)
	} else {
		sl.fn()
	}
	s.busy = false
	// The callback may have scheduled events and grown the slab, so the slot
	// is only addressed again after it returns.
	sl = &s.slab[e.idx]
	if sl.every > 0 && sl.pos == noPos {
		// Recurring tick: re-key in place. The sequence number is assigned
		// after fn ran, exactly as if the callback had re-armed itself, so
		// same-instant ordering is unchanged.
		s.heap[0].at, s.heap[0].seq = s.now+sl.every, s.seq
		s.seq++
		s.siftDown(0)
	} else {
		s.unlink(0)
		s.release(e.idx)
	}
	return true
}

// RunUntil executes events until the virtual clock would pass end, then sets
// the clock to end. Events scheduled exactly at end do run.
func (s *Simulator) RunUntil(end time.Duration) {
	for {
		at, ok := s.peek()
		if !ok || at > end {
			break
		}
		s.Step()
	}
	s.now = max(s.now, end)
	s.nowAtomic.Store(int64(s.now))
}

// RunBefore executes events strictly before end, then sets the clock to
// end. It is the window primitive of the sharded coordinator: events
// exactly at a window boundary belong to the next window (or to the final
// inclusive RunUntil pass), so a message arriving precisely at a barrier is
// never raced by the window that produced it.
func (s *Simulator) RunBefore(end time.Duration) {
	for {
		at, ok := s.peek()
		if !ok || at >= end {
			break
		}
		s.Step()
	}
	s.now = max(s.now, end)
	s.nowAtomic.Store(int64(s.now))
}

// Run executes events until the queue is empty.
func (s *Simulator) Run() {
	for s.Step() {
	}
	s.nowAtomic.Store(int64(s.now))
}

// Pending reports the number of scheduled events that have neither fired nor
// been stopped: the heap's events plus every lane's queued events, less the
// one whose callback is running, if any.
func (s *Simulator) Pending() int {
	n := len(s.heap)
	for _, ln := range s.lanes {
		n += ln.Len()
	}
	if s.busy {
		n--
	}
	return n
}

// peek reports the earliest pending event's time.
func (s *Simulator) peek() (time.Duration, bool) {
	e, _, ok := s.next()
	return e.at, ok
}

// next returns the earliest pending event's key, the smaller on (at, seq) of
// the two roots, and whether it is a lane head.
func (s *Simulator) next() (e entry, lane, ok bool) {
	if len(s.heads) > 0 && (len(s.heap) == 0 || s.heads[0].before(&s.heap[0])) {
		return s.heads[0], true, true
	}
	if len(s.heap) > 0 {
		return s.heap[0], false, true
	}
	return entry{}, false, false
}

// --- 4-ary min-heap on (at, seq) ---
//
// A 4-ary layout halves the tree depth of a binary heap; with the keys inline
// in the entries (no interface dispatch, no pointer chase) the wider node's
// extra comparisons are cheaper than the extra levels.

// before orders two entries by (at, seq). seq is unique, so the order is
// total and pop order is independent of heap arity and layout.
func (a *entry) before(b *entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// place writes e at heap position i and records the position in its slot.
func (s *Simulator) place(i int, e entry) {
	s.heap[i] = e
	s.slab[e.idx].pos = int32(i)
}

// push appends an entry and restores the heap property upward.
func (s *Simulator) push(e entry) {
	s.heap = append(s.heap, e)
	s.siftUp(len(s.heap) - 1)
}

// unlink removes the entry at position i: the last entry takes its place and
// is sifted to where it belongs.
func (s *Simulator) unlink(i int) {
	s.slab[s.heap[i].idx].pos = noPos
	last := len(s.heap) - 1
	moved := s.heap[last]
	s.heap = s.heap[:last]
	if i < last {
		s.heap[i] = moved
		s.fix(i)
	}
}

// fix restores the heap property around position i after its key changed.
func (s *Simulator) fix(i int) {
	if i > 0 && s.heap[i].before(&s.heap[(i-1)/4]) {
		s.siftUp(i)
	} else {
		s.siftDown(i)
	}
}

// siftUp moves the entry at position i toward the root.
func (s *Simulator) siftUp(i int) {
	e := s.heap[i]
	for i > 0 {
		p := (i - 1) / 4
		if !e.before(&s.heap[p]) {
			break
		}
		s.place(i, s.heap[p])
		i = p
	}
	s.place(i, e)
}

// siftDown moves the entry at position i toward the leaves.
func (s *Simulator) siftDown(i int) {
	n := len(s.heap)
	e := s.heap[i]
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		best := c
		for j := c + 1; j < end; j++ {
			if s.heap[j].before(&s.heap[best]) {
				best = j
			}
		}
		if !s.heap[best].before(&e) {
			break
		}
		s.place(i, s.heap[best])
		i = best
	}
	s.place(i, e)
}
