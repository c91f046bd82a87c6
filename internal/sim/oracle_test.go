package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"pi2/internal/packet"
)

// The ordering oracle: one script interpreter drives two schedulers through
// the same interface — the real Simulator and a naive reference that keeps
// its pending events in a slice sorted on (at, seq) and models Reset as
// Stop followed by At. Both record a trace of everything observable (fire
// order, clock, Pending, Processed, Active, Reset's result, the packets lane
// events carry, refused lane calls); the traces must be equal. Scripts are
// byte strings so the same encoding feeds the seeded table test and the fuzz
// target.
//
// A routed event (AtRoute) is a plain event in the reference too, one that
// remembers its route and argument: both worlds hand (route, argument) to the
// same fire hook, so an event routed to the wrong Router or with the wrong
// argument diverges there. Scripts also close and reopen routes, which the
// real scheduler refuses while the route has an event pending.
//
// Lanes do not change the reference's fire order: a Lane.At is a plain At
// there. That is the contract — a lane changes where an event waits, never
// when it fires. The reference models only which lane an event joined, which
// it needs to predict the calls a lane refuses: a packet-carrying push below
// the lane's tail, and a packet read outside the lane's running event.

// world is what a script can do to a scheduler. Handles are small integers
// owned by the world; -1 is the zero Timer.
type world interface {
	now() time.Duration
	at(t time.Duration, fn func()) int
	after(d time.Duration, fn func()) int
	every(iv time.Duration, fn func()) int
	stop(h int)
	reset(h int, t time.Duration) bool
	active(h int) bool
	step() bool
	runUntil(t time.Duration)
	shift(d time.Duration)
	pending() int
	processed() uint64
	// laneAt and laneAfter schedule on lane l (0..nLanes-1). Lane events
	// have no handle.
	laneAt(l int, t time.Duration, fn func())
	laneAfter(l int, d time.Duration, fn func())
	// lanePacket schedules fn d from now on lane l carrying a packet that
	// holds tok, and reports whether the lane refused it (below its tail).
	lanePacket(l int, d time.Duration, tok int64, fn func()) (refused bool)
	// readPacket reads the token of the packet lane l's running event
	// carries (-1 for none); ok is false when lane l has no running event.
	readPacket(l int) (tok int64, ok bool)
	// atRoute schedules at t an event routed on route k (0..oracleRoutes-1)
	// with argument arg: when it fires, the world calls its fire hook with
	// (k, arg).
	atRoute(t time.Duration, k int, arg int32) int
	// reroute closes route k and opens a new one in its place, reporting
	// whether it could: a route with an event pending (one running
	// included) cannot close.
	reroute(k int) bool
	// setFire installs the hook routed events call.
	setFire(fn func(k int, arg int32))
}

// --- the real scheduler ---

type realWorld struct {
	t      *testing.T
	s      *Simulator
	timers []Timer
	routed []bool // routed[h]: handle h is a routed event's
	lanes  []*Lane
	routes [oracleRoutes]Route
	fire   func(k int, arg int32)
	// stepping is set around Step/RunUntil: a check made meanwhile comes from
	// inside a callback, which is when the scheduler must report busy.
	stepping bool
}

// newRealWorld builds n lanes up front: lane 0 is private, the others are
// shared constant-delay lanes (asked for twice, to prove Lane(d) is one lane).
func newRealWorld(t *testing.T, s *Simulator, n int) *realWorld {
	w := &realWorld{t: t, s: s, lanes: make([]*Lane, n)}
	w.lanes[0] = s.NewLane()
	for l := 1; l < n; l++ {
		w.lanes[l] = s.Lane(laneDelay(l))
		if s.Lane(laneDelay(l)) != w.lanes[l] {
			t.Fatalf("Lane(%v) returned two different lanes", laneDelay(l))
		}
	}
	for k := range w.routes {
		w.routes[k] = s.NewRoute(&hook{w, k})
	}
	return w
}

// hook is route k's Router: it hands its events to the world's fire hook.
type hook struct {
	w *realWorld
	k int
}

func (h *hook) Fire(arg int32) { h.w.fire(h.k, arg) }

func (w *realWorld) timer(h int) Timer {
	if h < 0 {
		return Timer{}
	}
	return w.timers[h]
}

func (w *realWorld) keep(tm Timer) int {
	w.timers = append(w.timers, tm)
	w.routed = append(w.routed, false)
	return len(w.timers) - 1
}

func (w *realWorld) setFire(fn func(k int, arg int32)) { w.fire = fn }

func (w *realWorld) atRoute(t time.Duration, k int, arg int32) int {
	h := w.keep(w.s.AtRoute(t, w.routes[k], arg))
	w.routed[h] = true
	w.check()
	return h
}

func (w *realWorld) reroute(k int) bool {
	if panicsWith(w.t, "pending", func() { w.s.CloseRoute(w.routes[k]) }) {
		return false
	}
	w.routes[k] = w.s.NewRoute(&hook{w, k})
	w.check()
	return true
}

func (w *realWorld) now() time.Duration                    { return w.s.Now() }
func (w *realWorld) at(t time.Duration, fn func()) int     { return w.keep(w.s.At(t, fn)) }
func (w *realWorld) after(d time.Duration, fn func()) int  { return w.keep(w.s.After(d, fn)) }
func (w *realWorld) every(iv time.Duration, fn func()) int { return w.keep(w.s.Every(iv, fn)) }
func (w *realWorld) stop(h int)                            { w.timer(h).Stop(); w.check() }
func (w *realWorld) active(h int) bool                     { return w.timer(h).Active() }
func (w *realWorld) shift(d time.Duration)                 { w.s.ShiftPending(d); w.check() }
func (w *realWorld) pending() int                          { return w.s.Pending() }
func (w *realWorld) processed() uint64                     { return w.s.Processed() }

func (w *realWorld) step() bool {
	w.stepping = true
	ok := w.s.Step()
	w.stepping = false
	w.check()
	return ok
}

func (w *realWorld) runUntil(t time.Duration) {
	w.stepping = true
	w.s.RunUntil(t)
	w.stepping = false
	w.check()
}

func (w *realWorld) reset(h int, t time.Duration) bool {
	ok := w.timer(h).Reset(t)
	w.check()
	return ok
}

func (w *realWorld) laneAt(l int, t time.Duration, fn func()) {
	w.lanes[l].At(t, fn)
	w.check()
}

func (w *realWorld) laneAfter(l int, d time.Duration, fn func()) {
	w.lanes[l].After(d, fn)
	w.check()
}

func (w *realWorld) lanePacket(l int, d time.Duration, tok int64, fn func()) bool {
	refused := panicsWith(w.t, "below the lane's tail", func() {
		w.lanes[l].AfterPacket(d, &packet.Packet{Seq: tok}, fn)
	})
	w.check()
	return refused
}

func (w *realWorld) readPacket(l int) (tok int64, ok bool) {
	tok = -1
	refused := panicsWith(w.t, "outside the lane's running event", func() {
		if p := w.lanes[l].Packet(); p != nil {
			tok = p.Seq
		}
	})
	return tok, !refused
}

// panicsWith runs f and reports whether it panicked with a message holding
// want; any other panic fails the test.
func panicsWith(t *testing.T, want string, f func()) (panicked bool) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
				t.Fatalf("panic %q, want one naming %q", msg, want)
			}
			panicked = true
		}
	}()
	f()
	return false
}

// check runs the structural check, and holds busy to what the world knows:
// a script only ever operates mid-Step from inside a callback.
func (w *realWorld) check() {
	w.t.Helper()
	if w.s.busy != w.stepping {
		w.t.Fatalf("busy = %v with a callback on the stack = %v", w.s.busy, w.stepping)
	}
	checkHeap(w.t, w.s)
}

// checkHeap asserts the scheduler's structural invariant.
//   - The event heap holds exactly the pending events outside lanes (timers
//     and fallbacks): no ring event owns a slab slot, every slot is free or
//     in the heap (the root's slot stays in it, with no position, while its
//     callback runs), and entry and slot point at each other.
//   - The lane-head heap holds one key per non-empty lane, equal to its ring
//     head's, and none for an empty lane; a running lane event is its root.
//   - Both heaps are ordered, every ring is sorted strictly on (at, seq), and
//     Pending is the heap plus the rings, less a running event.
func checkHeap(t *testing.T, s *Simulator) {
	t.Helper()
	queued := 0
	for i, ln := range s.lanes {
		if ln.idx != int32(i) {
			t.Fatalf("lanes[%d] records index %d", i, ln.idx)
		}
		queued += ln.Len()
		for j := ln.head; j+1 != ln.tail && j != ln.tail; j++ {
			a, b := &ln.ring[j&ln.mask], &ln.ring[(j+1)&ln.mask]
			if a.at > b.at || a.seq >= b.seq {
				t.Fatalf("lane ring out of order: (%v, %d) before (%v, %d)", a.at, a.seq, b.at, b.seq)
			}
		}
	}
	want := len(s.heap) + queued
	if s.busy {
		want--
	}
	if want != s.Pending() {
		t.Fatalf("len(heap) %d + queued on lanes %d = %d, Pending() = %d", len(s.heap), queued, want, s.Pending())
	}

	heapRunning := s.busy && s.firing == nil
	routed := make([]int32, len(s.routes)) // events in the heap per route
	if len(s.slab) != len(s.heap)+len(s.free) {
		t.Fatalf("slab holds %d slots: %d in the heap, %d free", len(s.slab), len(s.heap), len(s.free))
	}
	for i := range s.heap {
		e := &s.heap[i]
		sl := &s.slab[e.idx]
		if i == 0 && heapRunning {
			if sl.pos != noPos && sl.pos != stoppedPos {
				t.Fatalf("running root's slot has position %d", sl.pos)
			}
		} else if int(sl.pos) != i {
			t.Fatalf("heap[%d] is slot %d, whose pos is %d", i, e.idx, sl.pos)
		}
		if (sl.fn == nil) == (sl.route == 0) {
			t.Fatalf("heap[%d] points at a released slot, or one with both a closure and a route", i)
		}
		if sl.route != 0 {
			routed[sl.route]++
		}
		if i > 0 && e.before(&s.heap[(i-1)/4]) {
			t.Fatalf("heap[%d] orders before its parent", i)
		}
	}
	for r := range s.routes {
		if rt := &s.routes[r]; rt.pending != routed[r] || (rt.r == nil && rt.pending != 0) {
			t.Fatalf("route %d (open %v) counts %d pending events, the heap holds %d", r, rt.r != nil, rt.pending, routed[r])
		}
	}
	for _, r := range s.freeRoutes {
		if s.routes[r].r != nil {
			t.Fatalf("free route %d still holds its Router", r)
		}
	}

	keyed := make([]bool, len(s.lanes))
	for i := range s.heads {
		h := &s.heads[i]
		ln := s.lanes[h.idx]
		if keyed[h.idx] || ln.Len() == 0 {
			t.Fatalf("heads[%d] is a second key for lane %d, or its lane is empty", i, h.idx)
		}
		keyed[h.idx] = true
		// A running lane event keeps its key, so this holds mid-callback too.
		if head := &ln.ring[ln.head&ln.mask]; head.at != h.at || head.seq != h.seq {
			t.Fatalf("heads[%d] keyed (%v, %d), its lane's head is (%v, %d)", i, h.at, h.seq, head.at, head.seq)
		}
		if i > 0 && h.before(&s.heads[(i-1)/2]) {
			t.Fatalf("heads[%d] orders before its parent", i)
		}
	}
	for i, ln := range s.lanes {
		if ln.Len() > 0 && !keyed[i] {
			t.Fatalf("lane %d holds %d events and no head key", i, ln.Len())
		}
	}
	if s.firing != nil && (!s.busy || len(s.heads) == 0 || s.lanes[s.heads[0].idx] != s.firing) {
		t.Fatal("the running lane event is not the lane-head root")
	}
}

// --- the reference ---

type refEvent struct {
	at    time.Duration
	seq   uint64
	id    int
	every time.Duration
	lane  int   // the lane whose ring it joined; -1 for the event heap
	tok   int64 // the token of the packet it carries; -1 for none
	route int   // the route it runs through; -1 for none (it runs fn)
	arg   int32 // the argument it hands its route
	fn    func()
}

type refWorld struct {
	clock   time.Duration
	seq     uint64
	queue   []refEvent // sorted on (at, seq)
	nextID  int
	done    uint64
	running int      // id of the event whose callback is on the stack, or -1
	runDead bool     // that event was stopped from inside its callback
	run     refEvent // that event
	fire    func(k int, arg int32)
}

func (w *refWorld) insert(e refEvent) {
	e.seq = w.seq
	w.seq++
	i := sort.Search(len(w.queue), func(i int) bool {
		q := &w.queue[i]
		return q.at > e.at || (q.at == e.at && q.seq > e.seq)
	})
	w.queue = append(w.queue, refEvent{})
	copy(w.queue[i+1:], w.queue[i:])
	w.queue[i] = e
}

func (w *refWorld) find(h int) int {
	for i := range w.queue {
		if w.queue[i].id == h {
			return i
		}
	}
	return -1
}

func (w *refWorld) schedule(t, iv time.Duration, lane int, tok int64, fn func()) int {
	id := w.nextID
	w.nextID++
	w.insert(refEvent{at: t, id: id, every: iv, lane: lane, tok: tok, route: -1, fn: fn})
	return id
}

func (w *refWorld) setFire(fn func(k int, arg int32)) { w.fire = fn }

func (w *refWorld) atRoute(t time.Duration, k int, arg int32) int {
	id := w.nextID
	w.nextID++
	w.insert(refEvent{at: t, id: id, lane: -1, tok: -1, route: k, arg: arg})
	return id
}

func (w *refWorld) reroute(k int) bool {
	if w.running >= 0 && w.run.route == k {
		return false
	}
	for i := range w.queue {
		if w.queue[i].route == k {
			return false
		}
	}
	return true
}

func (w *refWorld) now() time.Duration                   { return w.clock }
func (w *refWorld) at(t time.Duration, fn func()) int    { return w.schedule(t, 0, -1, -1, fn) }
func (w *refWorld) after(d time.Duration, fn func()) int { return w.schedule(w.clock+d, 0, -1, -1, fn) }
func (w *refWorld) every(iv time.Duration, fn func()) int {
	return w.schedule(w.clock+iv, iv, -1, -1, fn)
}
func (w *refWorld) pending() int      { return len(w.queue) }
func (w *refWorld) processed() uint64 { return w.done }

// joins reports whether an event at t would join lane l's ring: it does
// unless t is below the latest event the ring holds, the running one
// included.
func (w *refWorld) joins(l int, t time.Duration) bool {
	if w.running >= 0 && w.run.lane == l && t < w.run.at {
		return false
	}
	for i := range w.queue {
		if w.queue[i].lane == l && t < w.queue[i].at {
			return false
		}
	}
	return true
}

func (w *refWorld) laneAt(l int, t time.Duration, fn func()) {
	if !w.joins(l, t) {
		l = -1
	}
	w.schedule(t, 0, l, -1, fn)
}

func (w *refWorld) laneAfter(l int, d time.Duration, fn func()) { w.laneAt(l, w.clock+d, fn) }

func (w *refWorld) lanePacket(l int, d time.Duration, tok int64, fn func()) bool {
	if !w.joins(l, w.clock+d) {
		return true
	}
	w.schedule(w.clock+d, 0, l, tok, fn)
	return false
}

func (w *refWorld) readPacket(l int) (int64, bool) {
	if w.running < 0 || w.run.lane != l {
		return -1, false
	}
	return w.run.tok, true
}

func (w *refWorld) stop(h int) {
	if i := w.find(h); i >= 0 {
		w.queue = append(w.queue[:i], w.queue[i+1:]...)
	} else if h >= 0 && h == w.running {
		w.runDead = true
	}
}

func (w *refWorld) reset(h int, t time.Duration) bool {
	i := w.find(h)
	if i < 0 {
		return false
	}
	e := w.queue[i]
	w.stop(h)
	e.at = t
	w.insert(e)
	return true
}

func (w *refWorld) active(h int) bool {
	return w.find(h) >= 0 || (h >= 0 && h == w.running && !w.runDead)
}

func (w *refWorld) step() bool {
	if len(w.queue) == 0 {
		return false
	}
	e := w.queue[0]
	w.queue = w.queue[1:]
	w.clock = e.at
	w.done++
	w.running, w.runDead, w.run = e.id, false, e
	if e.route >= 0 {
		w.fire(e.route, e.arg)
	} else {
		e.fn()
	}
	if e.every > 0 && !w.runDead {
		e.at = w.clock + e.every
		w.insert(e)
	}
	w.running = -1
	return true
}

func (w *refWorld) runUntil(t time.Duration) {
	for len(w.queue) > 0 && w.queue[0].at <= t {
		w.step()
	}
	if w.clock < t {
		w.clock = t
	}
}

func (w *refWorld) shift(d time.Duration) {
	for i := range w.queue {
		w.queue[i].at += d
	}
	w.clock += d
}

// --- the script interpreter ---

const (
	oracleSlots     = 8   // handle registers a script can address
	oracleFewLanes  = 3   // lanes of most scripts
	oracleManyLanes = 80  // lanes of a script whose last byte is >= 0xc0
	oracleMaxOps    = 400 // top-level operations per script
	oracleMaxFires  = 3000
	oracleRoutes    = 2 // routes a script schedules on
)

// scriptLanes is how many lanes a script runs on. The last byte picks it, so
// the choice costs no byte of the program.
func scriptLanes(script []byte) int {
	if len(script) > 0 && script[len(script)-1] >= 0xc0 {
		return oracleManyLanes
	}
	return oracleFewLanes
}

type interp struct {
	w      world
	script []byte
	lanes  int
	pc     int
	slots  [oracleSlots]int
	events int
	fires  int
	trace  []int64
	// routed holds each routed event's closure, its index being the
	// argument the event carries.
	routed []func()
}

func (in *interp) next() int {
	if in.pc >= len(in.script) {
		return 0
	}
	b := in.script[in.pc]
	in.pc++
	return int(b)
}

// delay maps a byte to a short delay with many exact ties, or now and then a
// far-future one (the retransmission-timer shape: armed far ahead, moved
// often, rarely fired).
func delay(b int) time.Duration {
	if b%8 == 7 {
		return 200*time.Millisecond + time.Duration(b/8)*time.Millisecond
	}
	return time.Duration(b%8) * time.Millisecond
}

// laneDelay is lane l's own constant delay: scripts that push it keep the
// lane monotone, so long in-order rings build up; any other delay on the same
// lane lands in or out of order by chance (the heap fallback).
func laneDelay(l int) time.Duration { return time.Duration(2*l+1) * time.Millisecond }

func (in *interp) log(vs ...int64) { in.trace = append(in.trace, vs...) }

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// leaf builds a child event's closure: it only records that it fired.
func (in *interp) leaf() func() {
	child := in.events
	in.events++
	return func() {
		in.fires++
		in.log(-1, int64(child), int64(in.w.now()), int64(in.w.pending()))
	}
}

// carry pushes a packet-carrying event onto lane l: its token is its event
// id, and its closure reads its own packet back, so a payload that reached
// the wrong event, or none, diverges from the reference's token.
func (in *interp) carry(l int, d time.Duration) {
	tok := int64(in.events)
	in.events++
	refused := in.w.lanePacket(l, d, tok, func() {
		in.fires++
		got, ok := in.w.readPacket(l)
		in.log(-2, tok, got, b2i(ok), int64(in.w.now()), int64(in.w.pending()))
	})
	in.log(-3, tok, b2i(refused))
}

// atRoute schedules a routed event at t on route k into handle register
// slot: its argument indexes the closure built for it, which the fire hook
// runs. The closure's Stop and Reset address the event's own register, so
// routed events often stop or move themselves.
func (in *interp) atRoute(t time.Duration, k, slot int) {
	arg := int32(len(in.routed))
	in.routed = append(in.routed, nil)
	in.routed[arg] = in.callbackOn(slot)
	in.slots[slot] = in.w.atRoute(t, k, arg)
}

// fire is the hook routed events call: it logs the route and argument it was
// handed, then runs the event's closure.
func (in *interp) fire(k int, arg int32) {
	in.log(-5, int64(k), int64(arg))
	in.routed[arg]()
}

// read logs an attempt to read lane l's packet.
func (in *interp) read(l int) {
	got, ok := in.w.readPacket(l)
	in.log(-4, got, b2i(ok))
}

// callback builds an event's closure. What it does when it fires — nothing,
// Stop or Reset a handle (possibly its own), schedule a child on the heap or
// on a lane (its own, if it is a lane event of that lane), with or without a
// packet, read a lane's packet, schedule a routed event, or close and reopen
// a route (its own, if it is routed) — is fixed from the script at
// scheduling time, so both worlds run the same program.
func (in *interp) callback() func() { return in.callbackOn(-1) }

// callbackOn is callback with its handle register fixed to own, unless own
// is -1.
func (in *interp) callbackOn(own int) func() {
	id := in.events
	in.events++
	kind, raw, arg := in.next()%14, in.next(), in.next()
	slot, l, k := raw%oracleSlots, raw%in.lanes, raw%oracleRoutes
	if own >= 0 {
		slot = own
	}
	return func() {
		in.fires++
		in.log(-1, int64(id), int64(in.w.now()), int64(in.w.pending()))
		h := in.slots[slot]
		switch kind {
		case 1:
			in.w.stop(h)
		case 2:
			in.log(b2i(in.w.reset(h, in.w.now()+delay(arg))))
		case 3:
			in.slots[slot] = in.w.after(delay(arg), in.leaf())
		case 4:
			// Stop then Reset the same handle: once stopped it stays stopped.
			in.w.stop(h)
			in.log(b2i(in.w.reset(h, in.w.now()+delay(arg))))
		case 6:
			in.w.laneAfter(l, delay(arg), in.leaf())
		case 7:
			in.w.laneAfter(l, laneDelay(l), in.leaf())
		case 8:
			// Same instant: behind everything already queued for now.
			in.w.laneAt(l, in.w.now(), in.leaf())
		case 9:
			in.carry(l, laneDelay(l))
		case 10:
			in.carry(l, delay(arg))
		case 11:
			in.read(l)
		case 12:
			in.atRoute(in.w.now()+delay(arg), k, slot)
		case 13:
			in.log(b2i(in.w.reroute(k)))
		}
		in.log(b2i(in.w.active(h)))
	}
}

func (in *interp) run() []int64 {
	in.lanes = scriptLanes(in.script)
	in.w.setFire(in.fire)
	for i := range in.slots {
		in.slots[i] = -1
	}
	for op := 0; op < oracleMaxOps && in.pc < len(in.script) && in.fires < oracleMaxFires; op++ {
		code, raw := in.next()%19, in.next()
		slot, l, k := raw%oracleSlots, raw%in.lanes, raw%oracleRoutes
		switch code {
		case 0:
			in.slots[slot] = in.w.at(in.w.now()+delay(in.next()), in.callback())
		case 1, 2:
			in.slots[slot] = in.w.after(delay(in.next()), in.callback())
		case 3:
			in.slots[slot] = in.w.every(delay(in.next())+time.Millisecond, in.callback())
		case 4:
			in.w.stop(in.slots[slot])
		case 5, 6:
			in.log(b2i(in.w.reset(in.slots[slot], in.w.now()+delay(in.next()))))
		case 7:
			for n := in.next()%8 + 1; n > 0; n-- {
				in.log(b2i(in.w.step()))
			}
		case 8:
			in.w.runUntil(in.w.now() + delay(in.next()))
		case 9:
			in.w.shift(delay(in.next()))
		case 10:
			in.w.laneAt(l, in.w.now()+delay(in.next()), in.callback())
		case 11:
			in.w.laneAfter(l, delay(in.next()), in.callback())
		case 12, 13:
			in.w.laneAfter(l, laneDelay(l), in.callback())
		case 14:
			in.carry(l, laneDelay(l))
		case 15:
			in.carry(l, delay(in.next()))
		case 16:
			in.read(l)
		case 17:
			in.atRoute(in.w.now()+delay(in.next()), k, slot)
		case 18:
			in.log(b2i(in.w.reroute(k)))
		}
		in.log(int64(code), int64(in.w.now()), int64(in.w.pending()), int64(in.w.processed()),
			b2i(in.w.active(in.slots[slot])))
	}
	// Drain (tickers never drain on their own, so bound the tail).
	for in.fires < oracleMaxFires && in.w.step() {
	}
	in.log(int64(in.w.now()), int64(in.w.pending()), int64(in.w.processed()))
	return in.trace
}

// checkScript runs one script through both worlds and compares the traces.
func checkScript(t *testing.T, script []byte) {
	t.Helper()
	s := New(1)
	real := (&interp{w: newRealWorld(t, s, scriptLanes(script)), script: script}).run()
	checkHeap(t, s)
	ref := (&interp{w: &refWorld{running: -1}, script: script}).run()
	if len(real) != len(ref) {
		t.Fatalf("script %x: trace lengths differ: real %d, reference %d", script, len(real), len(ref))
	}
	for i := range real {
		if real[i] != ref[i] {
			lo := max(i-8, 0)
			t.Fatalf("script %x: traces diverge at %d:\n real %v\n  ref %v", script, i, real[lo:i+1], ref[lo:i+1])
		}
	}
}

// oracleScript is the seeded table's script number seed.
func oracleScript(seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	script := make([]byte, 30+rng.Intn(300))
	rng.Read(script)
	return script
}

// TestSchedulerMatchesReference is the seeded table: 1500 random scripts.
func TestSchedulerMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 1500; seed++ {
		checkScript(t, oracleScript(seed))
	}
}

// TestOracleScriptsExerciseEveryPath guards the oracle itself: over the
// table, scripts must actually hit in-place re-arms (both directions),
// mid-heap unlinks, self-stops and stale-handle no-ops, every routed-event
// path — a routed event fired, re-armed, stopped pending, stopped from its own
// callback and addressed through a stale handle, and a route closed and
// reopened or refused with events pending — and every lane path —
// joining a ring behind its head, the out-of-order fallback, a lane event
// pushing onto its own lane and onto another, a lane draining at the
// lane-head root, a lane head and a timer tied on at (seq decides), a shift
// over loaded rings, packets read back by their own events, both refused
// packet calls, and many lanes at once — otherwise equal traces would prove
// nothing.
func TestOracleScriptsExerciseEveryPath(t *testing.T) {
	var resetOK, resetNo, fires int64
	var paths pathCounts
	for seed := int64(0); seed < 200; seed++ {
		script := oracleScript(seed)
		w := &countingWorld{refWorld: refWorld{running: -1}}
		(&interp{w: w, script: script}).run()
		resetOK += w.resetOK
		resetNo += w.resetNo
		fires += int64(w.done)
		n := scriptLanes(script)
		lw := &pathCountingWorld{realWorld: newRealWorld(t, New(1), n), n: &paths}
		(&interp{w: lw, script: script}).run()
		if n >= 64 {
			paths.manyLanePrograms++
		}
	}
	if resetOK < 500 || resetNo < 500 || fires < 5000 {
		t.Fatalf("oracle scripts too tame: %d resets moved a timer, %d were no-ops, %d events fired",
			resetOK, resetNo, fires)
	}
	t.Logf("paths: %+v", paths)
	if paths.joined < 500 || paths.fellBack < 200 || paths.ontoSelf < 50 || paths.ontoOther < 50 ||
		paths.drainedAtRoot < 200 || paths.shiftedQueued < 200 || paths.deepest < 8 ||
		paths.tiedWithTimer < 50 || paths.roundTrips < 200 || paths.refusedPush < 50 ||
		paths.refusedRead < 50 || paths.manyLanePrograms < 20 || paths.mostHeads < 16 {
		t.Fatalf("oracle scripts too tame for lanes: %+v", paths)
	}
	if paths.routedFired < 5000 || paths.routedReset < 30 || paths.routedStopped < 80 ||
		paths.routedSelfStop < 20 || paths.routedStale < 10000 || paths.rerouted < 9000 ||
		paths.rerouteRefused < 1000 {
		t.Fatalf("oracle scripts too tame for routed events: %+v", paths)
	}
}

type countingWorld struct {
	refWorld
	resetOK, resetNo int64
}

func (w *countingWorld) reset(h int, t time.Duration) bool {
	ok := w.refWorld.reset(h, t)
	if ok {
		w.resetOK++
	} else {
		w.resetNo++
	}
	return ok
}

// pathCounts is how often a batch of scripts took each lane and routed-event
// path.
type pathCounts struct {
	joined           int // queued behind a non-empty lane's head
	fellBack         int // below the lane's tail: went to the event heap
	ontoSelf         int // a lane event pushed onto its own lane
	ontoOther        int // a lane event pushed onto another lane
	drainedAtRoot    int // a lane's last event fired and its key left the lane-head heap
	tiedWithTimer    int // a lane head fired or waited at a timer's at, and seq decided
	shiftedQueued    int // events sitting in rings across a ShiftPending
	roundTrips       int // a packet read back by the event that carried it
	refusedPush      int // a packet-carrying push below the lane's tail
	refusedRead      int // a packet read outside the lane's running event
	manyLanePrograms int // scripts run on at least 64 lanes
	mostHeads        int // most lanes non-empty at once
	deepest          int // longest ring seen
	routedFired      int // a routed event fired
	routedReset      int // a pending routed event was re-armed in place
	routedStopped    int // a pending routed event was stopped
	routedSelfStop   int // a routed event stopped itself from its own callback
	routedStale      int // Stop or Reset on a routed event's handle after it fired or was stopped
	rerouted         int // a route with nothing pending closed and reopened
	rerouteRefused   int // a route with an event pending refused to close
}

// pathCountingWorld classifies lane and routed-event operations by looking at
// the real scheduler's state just before each one.
type pathCountingWorld struct {
	*realWorld
	n *pathCounts
}

func (w *pathCountingWorld) classify(l int, t time.Duration) {
	ln, s := w.lanes[l], w.s
	switch q := ln.Len(); {
	case q > 0 && t < ln.ring[(ln.tail-1)&ln.mask].at:
		w.n.fellBack++
	case q > 0:
		w.n.joined++
	}
	if s.firing == ln {
		w.n.ontoSelf++
	} else if s.firing != nil {
		w.n.ontoOther++
	}
}

func (w *pathCountingWorld) counted(l int) {
	w.n.deepest = max(w.n.deepest, w.lanes[l].Len())
	w.n.mostHeads = max(w.n.mostHeads, len(w.s.heads))
}

func (w *pathCountingWorld) laneAt(l int, t time.Duration, fn func()) {
	w.classify(l, t)
	w.realWorld.laneAt(l, t, fn)
	w.counted(l)
}

func (w *pathCountingWorld) laneAfter(l int, d time.Duration, fn func()) {
	w.laneAt(l, w.s.Now()+d, fn)
}

func (w *pathCountingWorld) lanePacket(l int, d time.Duration, tok int64, fn func()) bool {
	w.classify(l, w.s.Now()+d)
	refused := w.realWorld.lanePacket(l, d, tok, fn)
	if refused {
		w.n.refusedPush++
	}
	w.counted(l)
	return refused
}

func (w *pathCountingWorld) readPacket(l int) (int64, bool) {
	tok, ok := w.realWorld.readPacket(l)
	switch {
	case !ok:
		w.n.refusedRead++
	case tok >= 0:
		w.n.roundTrips++
	}
	return tok, ok
}

// routedHandle classifies an operation on handle h: whether it is a routed
// event's, and whether that event is pending in the heap, running, or gone
// (its handle stale).
func (w *pathCountingWorld) routedHandle(h int) (routed, pending, running, stale bool) {
	if h < 0 || !w.routed[h] {
		return false, false, false, false
	}
	tm, s := w.timers[h], w.s
	sl := &s.slab[tm.idx]
	if sl.gen != tm.gen {
		return true, false, false, true
	}
	running = s.busy && s.firing == nil && s.heap[0].idx == tm.idx
	return true, !running, running, false
}

func (w *pathCountingWorld) stop(h int) {
	if routed, pending, running, stale := w.routedHandle(h); routed {
		switch {
		case pending:
			w.n.routedStopped++
		case running:
			w.n.routedSelfStop++
		case stale:
			w.n.routedStale++
		}
	}
	w.realWorld.stop(h)
}

func (w *pathCountingWorld) reset(h int, t time.Duration) bool {
	routed, _, _, stale := w.routedHandle(h)
	ok := w.realWorld.reset(h, t)
	switch {
	case routed && ok:
		w.n.routedReset++
	case stale:
		w.n.routedStale++
	}
	return ok
}

func (w *pathCountingWorld) reroute(k int) bool {
	ok := w.realWorld.reroute(k)
	if ok {
		w.n.rerouted++
	} else {
		w.n.rerouteRefused++
	}
	return ok
}

func (w *pathCountingWorld) step() bool {
	s := w.s
	if len(s.heap) > 0 && (len(s.heads) == 0 || s.heap[0].before(&s.heads[0])) && s.slab[s.heap[0].idx].route != 0 {
		w.n.routedFired++
	}
	var last *Lane
	if len(s.heads) > 0 {
		if len(s.heap) > 0 && s.heads[0].at == s.heap[0].at {
			w.n.tiedWithTimer++
		}
		if ln := s.lanes[s.heads[0].idx]; ln.Len() == 1 && (len(s.heap) == 0 || s.heads[0].before(&s.heap[0])) {
			last = ln
		}
	}
	ok := w.realWorld.step()
	if last != nil && last.Len() == 0 {
		w.n.drainedAtRoot++
	}
	return ok
}

func (w *pathCountingWorld) shift(d time.Duration) {
	for _, ln := range w.lanes {
		w.n.shiftedQueued += ln.Len()
	}
	w.realWorld.shift(d)
}

// FuzzSchedulerMatchesReference feeds arbitrary scripts through the same
// differential check; the committed corpus under testdata/fuzz seeds it, and
// so do the lane-heavy programs below.
func FuzzSchedulerMatchesReference(f *testing.F) {
	f.Add([]byte{})
	for _, script := range laneHeavyScripts() {
		f.Add(script)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4096 {
			t.Skip()
		}
		checkScript(t, script)
	})
}

// laneHeavyScripts are fuzz seeds made mostly of lane operations:
//   - a flood over many lanes at their own delays, so dozens of lanes hold
//     events at once and the lane-head heap is deep;
//   - packet round trips on a few lanes, interleaved with out-of-order
//     packet pushes the lanes refuse and reads from outside;
//   - lane heads tied with timers at one instant, then shifted mid-ring.
func laneHeavyScripts() [][]byte {
	var flood, packets, ties []byte
	for i := 0; i < 120; i++ {
		flood = append(flood, 12, byte(i*7), 14, byte(i*11))
		if i%10 == 9 {
			flood = append(flood, 7, 0, 5)
		}
	}
	flood = append(flood, 0xff) // the last byte selects the many-lane program
	for i := 0; i < 60; i++ {
		packets = append(packets, 14, byte(i%3), 15, byte(i%3), byte(i), 16, byte(i))
		if i%4 == 3 {
			packets = append(packets, 7, 0, 3)
		}
	}
	for i := 0; i < 40; i++ {
		// A timer at 3 ms, then lane 1's own 3 ms delay: tied, seq decides.
		ties = append(ties, 1, byte(i), 3, 0, 0, 0, 12, 1, 0, 0, 0)
		if i%8 == 7 {
			ties = append(ties, 9, 0, 2, 7, 0, 7)
		}
	}
	return [][]byte{flood, packets, ties}
}

// TestResetOrdersLikeStopPlusAt pins the contract directly: a re-armed timer
// takes a fresh place in the same-instant FIFO order, exactly where a
// stopped-and-rescheduled one would land.
func TestResetOrdersLikeStopPlusAt(t *testing.T) {
	run := func(rearm func(s *Simulator, tm Timer, fn Event) Timer) string {
		s := New(1)
		var got string
		ev := func(name string) Event { return func() { got += name } }
		a := s.At(5*time.Millisecond, ev("a"))
		s.At(9*time.Millisecond, ev("b"))
		s.At(9*time.Millisecond, ev("c"))
		a = rearm(s, a, ev("a")) // a moves to 9 ms: after b and c
		s.At(9*time.Millisecond, ev("d"))
		if !a.Active() {
			t.Fatal("re-armed timer not Active")
		}
		s.Run()
		return got
	}
	inPlace := run(func(s *Simulator, tm Timer, _ Event) Timer {
		if !tm.Reset(9 * time.Millisecond) {
			t.Fatal("Reset of a pending timer returned false")
		}
		return tm
	})
	stopAt := run(func(s *Simulator, tm Timer, fn Event) Timer {
		tm.Stop()
		return s.At(9*time.Millisecond, fn)
	})
	if inPlace != "bcad" || stopAt != inPlace {
		t.Fatalf("Reset fired %q, Stop+At fired %q, want bcad", inPlace, stopAt)
	}
}

// TestResetOnInertHandles: zero, fired and stopped handles are not re-armed,
// and a stale handle never moves its slot's next tenant.
func TestResetOnInertHandles(t *testing.T) {
	s := New(1)
	var zero Timer
	if zero.Reset(time.Second) {
		t.Error("zero Timer was re-armed")
	}
	fired := s.After(time.Millisecond, nop)
	s.Run()
	stopped := s.After(time.Millisecond, nop)
	stopped.Stop()
	tenant := s.After(time.Millisecond, nop) // reuses a recycled slot
	if fired.Reset(time.Second) || stopped.Reset(time.Second) {
		t.Error("inert handle was re-armed")
	}
	if at, _ := s.peek(); at != 2*time.Millisecond || !tenant.Active() {
		t.Errorf("stale Reset disturbed the slot's new tenant (next event at %v)", at)
	}
	defer func() {
		if recover() == nil {
			t.Error("Reset into the past did not panic")
		}
	}()
	tenant.Reset(0)
}

func ExampleTimer_Reset() {
	s := New(1)
	rto := s.After(200*time.Millisecond, func() { fmt.Println("timeout at", s.Now()) })
	s.After(50*time.Millisecond, func() {
		// An ACK arrived: push the timeout out without leaving the old one
		// behind in the event queue.
		rto.Reset(s.Now() + 200*time.Millisecond)
	})
	s.Run()
	// Output: timeout at 250ms
}
