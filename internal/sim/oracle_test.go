package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// The ordering oracle: one script interpreter drives two schedulers through
// the same interface — the real Simulator and a naive reference that keeps
// its pending events in a slice sorted on (at, seq) and models Reset as
// Stop followed by At. Both record a trace of everything observable (fire
// order, clock, Pending, Processed, Active, Reset's result); the traces must
// be equal. Scripts are byte strings so the same encoding feeds the seeded
// table test and the fuzz target.
//
// Lanes are invisible to the reference: a Lane.At is a plain At there. That is
// the contract — a lane changes where an event waits, never when it fires.

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
	// laneAt and laneAfter schedule on lane l (0..oracleLanes-1). Lane events
	// have no handle.
	laneAt(l int, t time.Duration, fn func())
	laneAfter(l int, d time.Duration, fn func())
}

// --- the real scheduler ---

type realWorld struct {
	t      *testing.T
	s      *Simulator
	timers []Timer
	lanes  [oracleLanes]*Lane
	// stepping is set around Step/RunUntil: a check made meanwhile comes from
	// inside a callback, which is when the scheduler must report running().
	stepping bool
}

// newRealWorld builds the lanes up front: lane 0 is private, lanes 1 and 2 are
// shared constant-delay lanes (asked for twice, to prove Lane(d) is one lane).
func newRealWorld(t *testing.T, s *Simulator) *realWorld {
	w := &realWorld{t: t, s: s}
	w.lanes[0] = s.NewLane()
	for l := 1; l < oracleLanes; l++ {
		w.lanes[l] = s.Lane(laneDelay(l))
		if s.Lane(laneDelay(l)) != w.lanes[l] {
			t.Fatalf("Lane(%v) returned two different lanes", laneDelay(l))
		}
	}
	return w
}

func (w *realWorld) timer(h int) Timer {
	if h < 0 {
		return Timer{}
	}
	return w.timers[h]
}

func (w *realWorld) keep(tm Timer) int {
	w.timers = append(w.timers, tm)
	return len(w.timers) - 1
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

// check runs the structural check, and holds running() to what the world
// knows: a script only ever operates mid-Step from inside a callback.
func (w *realWorld) check() {
	w.t.Helper()
	if w.s.running() != w.stepping {
		w.t.Fatalf("running() = %v with a callback on the stack = %v", w.s.running(), w.stepping)
	}
	checkHeap(w.t, w.s)
}

// checkHeap asserts the scheduler's structural invariant. The heap plus the
// events queued behind each lane's head are exactly the pending events
// (nothing cancelled lingers anywhere); the heap is ordered; every entry and
// its slot point at each other, except the root while its callback runs
// (pos is noPos then); and each non-empty lane has exactly one heap entry,
// keyed to its ring head, over a ring sorted strictly on (at, seq).
func checkHeap(t *testing.T, s *Simulator) {
	t.Helper()
	want, linked := len(s.heap), 0
	if s.running() {
		want--
	}
	for _, ln := range s.lanes {
		if n := ln.Len(); n > 0 {
			want += n - 1
			linked++
		}
		for i := ln.head; i+1 != ln.tail && i != ln.tail; i++ {
			a, b := &ln.ring[i&ln.mask], &ln.ring[(i+1)&ln.mask]
			if a.at > b.at || a.seq >= b.seq {
				t.Fatalf("lane ring out of order: (%v, %d) before (%v, %d)", a.at, a.seq, b.at, b.seq)
			}
		}
	}
	if want != s.Pending() {
		t.Fatalf("len(heap) %d + queued behind lane heads = %d, Pending() = %d", len(s.heap), want, s.Pending())
	}
	inHeap := 0
	for i := range s.slab {
		if s.slab[i].pos >= 0 {
			inHeap++
		}
	}
	if s.running() {
		inHeap++
	}
	if inHeap != len(s.heap) {
		t.Fatalf("%d slots claim a heap position, heap holds %d", inHeap, len(s.heap))
	}
	for i := range s.heap {
		e := &s.heap[i]
		sl := &s.slab[e.idx]
		if got := sl.pos; int(got) != i && !(i == 0 && s.running()) {
			t.Fatalf("heap[%d] is slot %d, whose pos is %d", i, e.idx, got)
		}
		if sl.lane != 0 {
			ln := s.lanes[sl.lane-1]
			if ln.idx != e.idx || ln.Len() == 0 {
				t.Fatalf("heap[%d] stands for a lane that is empty or owns another slot", i)
			}
			// A running lane event keeps its key, so this holds mid-callback too.
			if head := &ln.ring[ln.head&ln.mask]; head.at != e.at || head.seq != e.seq {
				t.Fatalf("heap[%d] keyed (%v, %d), its lane's head is (%v, %d)", i, e.at, e.seq, head.at, head.seq)
			}
			linked--
		} else if sl.fn == nil {
			t.Fatalf("heap[%d] points at a released slot", i)
		}
		if i > 0 && e.before(&s.heap[(i-1)/4]) {
			t.Fatalf("heap[%d] orders before its parent", i)
		}
	}
	if linked != 0 {
		t.Fatalf("non-empty lanes and lane entries in the heap differ by %d", linked)
	}
}

// --- the reference ---

type refEvent struct {
	at    time.Duration
	seq   uint64
	id    int
	every time.Duration
	fn    func()
}

type refWorld struct {
	clock   time.Duration
	seq     uint64
	queue   []refEvent // sorted on (at, seq)
	nextID  int
	done    uint64
	running int  // id of the event whose callback is on the stack, or -1
	runDead bool // that event was stopped from inside its callback
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

func (w *refWorld) schedule(t, iv time.Duration, fn func()) int {
	id := w.nextID
	w.nextID++
	w.insert(refEvent{at: t, id: id, every: iv, fn: fn})
	return id
}

func (w *refWorld) now() time.Duration                    { return w.clock }
func (w *refWorld) at(t time.Duration, fn func()) int     { return w.schedule(t, 0, fn) }
func (w *refWorld) after(d time.Duration, fn func()) int  { return w.schedule(w.clock+d, 0, fn) }
func (w *refWorld) every(iv time.Duration, fn func()) int { return w.schedule(w.clock+iv, iv, fn) }
func (w *refWorld) pending() int                          { return len(w.queue) }

func (w *refWorld) laneAt(_ int, t time.Duration, fn func())    { w.schedule(t, 0, fn) }
func (w *refWorld) laneAfter(_ int, d time.Duration, fn func()) { w.schedule(w.clock+d, 0, fn) }
func (w *refWorld) processed() uint64                           { return w.done }

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
	w.running, w.runDead = e.id, false
	e.fn()
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
	oracleSlots    = 8   // handle registers a script can address
	oracleLanes    = 3   // lanes a script can address
	oracleMaxOps   = 400 // top-level operations per script
	oracleMaxFires = 3000
)

type interp struct {
	w      world
	script []byte
	pc     int
	slots  [oracleSlots]int
	events int
	fires  int
	trace  []int64
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

// callback builds an event's closure. What it does when it fires — nothing,
// Stop or Reset a handle (possibly its own), schedule a child on the heap or
// on a lane (its own, if it is a lane event of that lane) — is fixed from the
// script at scheduling time, so both worlds run the same program.
func (in *interp) callback() func() {
	id := in.events
	in.events++
	kind, slot, arg := in.next()%9, in.next()%oracleSlots, in.next()
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
			in.w.laneAfter(slot%oracleLanes, delay(arg), in.leaf())
		case 7:
			in.w.laneAfter(slot%oracleLanes, laneDelay(slot%oracleLanes), in.leaf())
		case 8:
			// Same instant: behind everything already queued for now.
			in.w.laneAt(slot%oracleLanes, in.w.now(), in.leaf())
		}
		in.log(b2i(in.w.active(h)))
	}
}

func (in *interp) run() []int64 {
	for i := range in.slots {
		in.slots[i] = -1
	}
	for op := 0; op < oracleMaxOps && in.pc < len(in.script) && in.fires < oracleMaxFires; op++ {
		code, slot := in.next()%14, in.next()%oracleSlots
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
			in.w.laneAt(slot%oracleLanes, in.w.now()+delay(in.next()), in.callback())
		case 11:
			in.w.laneAfter(slot%oracleLanes, delay(in.next()), in.callback())
		case 12, 13:
			in.w.laneAfter(slot%oracleLanes, laneDelay(slot%oracleLanes), in.callback())
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
	real := (&interp{w: newRealWorld(t, s), script: script}).run()
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

// TestSchedulerMatchesReference is the seeded table: 1500 random scripts.
func TestSchedulerMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 1500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		script := make([]byte, 30+rng.Intn(300))
		rng.Read(script)
		checkScript(t, script)
	}
}

// TestOracleScriptsExerciseEveryPath guards the oracle itself: over the
// table, scripts must actually hit in-place re-arms (both directions),
// mid-heap unlinks, self-stops and stale-handle no-ops, and every lane path —
// joining a ring behind its head, the out-of-order fallback, a lane event
// pushing onto its own lane and onto another, a lane draining while it owns
// the root, a shift over a loaded ring — otherwise equal traces would prove
// nothing.
func TestOracleScriptsExerciseEveryPath(t *testing.T) {
	var resetOK, resetNo, fires int64
	var lanes laneCounts
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		script := make([]byte, 30+rng.Intn(300))
		rng.Read(script)
		w := &countingWorld{refWorld: refWorld{running: -1}}
		(&interp{w: w, script: script}).run()
		resetOK += w.resetOK
		resetNo += w.resetNo
		fires += int64(w.done)
		lw := &laneCountingWorld{realWorld: newRealWorld(t, New(1)), n: &lanes}
		(&interp{w: lw, script: script}).run()
	}
	if resetOK < 500 || resetNo < 500 || fires < 5000 {
		t.Fatalf("oracle scripts too tame: %d resets moved a timer, %d were no-ops, %d events fired",
			resetOK, resetNo, fires)
	}
	t.Logf("lane paths: %+v", lanes)
	if lanes.joined < 500 || lanes.fellBack < 200 || lanes.ontoSelf < 50 || lanes.ontoOther < 50 ||
		lanes.drainedAtRoot < 200 || lanes.shiftedQueued < 200 || lanes.deepest < 8 {
		t.Fatalf("oracle scripts too tame for lanes: %+v", lanes)
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

// laneCounts is how often a batch of scripts took each lane path.
type laneCounts struct {
	joined        int // queued behind a non-empty lane's head
	fellBack      int // below the lane's tail: went to the heap
	ontoSelf      int // a lane event pushed onto its own lane
	ontoOther     int // a lane event pushed onto another lane
	drainedAtRoot int // a lane's last event fired and its entry was unlinked
	shiftedQueued int // events sitting in rings across a ShiftPending
	deepest       int // longest ring seen
}

// laneCountingWorld classifies lane operations by looking at the real
// scheduler's state just before each one.
type laneCountingWorld struct {
	*realWorld
	n *laneCounts
}

func (w *laneCountingWorld) laneAt(l int, t time.Duration, fn func()) {
	ln, s := w.lanes[l], w.s
	switch q := ln.Len(); {
	case q > 0 && t < ln.ring[(ln.tail-1)&ln.mask].at:
		w.n.fellBack++
	case q > 0:
		w.n.joined++
	}
	if s.running() {
		if running := s.slab[s.heap[0].idx].lane; running == s.slab[ln.idx].lane {
			w.n.ontoSelf++
		} else if running != 0 {
			w.n.ontoOther++
		}
	}
	w.realWorld.laneAt(l, t, fn)
	w.n.deepest = max(w.n.deepest, ln.Len())
}

func (w *laneCountingWorld) laneAfter(l int, d time.Duration, fn func()) {
	w.laneAt(l, w.s.Now()+d, fn)
}

func (w *laneCountingWorld) step() bool {
	var last *Lane
	if s := w.s; len(s.heap) > 0 {
		if li := s.slab[s.heap[0].idx].lane; li != 0 && s.lanes[li-1].Len() == 1 {
			last = s.lanes[li-1]
		}
	}
	ok := w.realWorld.step()
	if last != nil && last.Len() == 0 {
		w.n.drainedAtRoot++
	}
	return ok
}

func (w *laneCountingWorld) shift(d time.Duration) {
	for _, ln := range w.lanes {
		w.n.shiftedQueued += ln.Len()
	}
	w.realWorld.shift(d)
}

// FuzzSchedulerMatchesReference feeds arbitrary scripts through the same
// differential check; the committed corpus under testdata/fuzz seeds it.
func FuzzSchedulerMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4096 {
			t.Skip()
		}
		checkScript(t, script)
	})
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
