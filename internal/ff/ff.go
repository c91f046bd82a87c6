// Package ff implements the hybrid fluid/packet fast-forward engine: when
// every bulk flow sits in congestion avoidance and the bottleneck queue is
// parked near the AQM's operating point, the packet world is frozen and the
// simulation advances analytically from one AQM update to the next —
// per-flow windows stepped in closed form by the congestion controls' own
// rules, the backlog evolved as a fluid (aggregate arrival minus drain), and
// mark/drop decisions drawn per flow and period in one batch call that makes
// the very draws packet mode would (aqm.FastForwarder makes for n packets
// the decision Enqueue makes for one). When the epoch ends, pending events and
// timestamped state are translated by the skipped interval, so packet mode
// resumes from a consistent instant.
//
// Each period runs in two stages over batches of flows: stage A decides the
// packets in flow order, stage B steps the windows on whichever goroutine
// is free, the caller's or a helper's on a second core. A flow's stage A
// needs only its own stage B of the period before, and stage-B batches
// touch disjoint flows, so the output is the same bytes whoever runs them.
//
// The engine never rolls back: each AQM update period commits as it is
// simulated, and the epoch simply ends when the stay band breaks. Entry and
// exit predicates, the RNG discipline, and the deliberate modeling
// deviations are documented in DESIGN.md ("Hybrid fluid/packet
// architecture").
package ff

import (
	"math"
	"runtime"
	"sync"
	"time"

	"pi2/internal/aqm"
	"pi2/internal/link"
	"pi2/internal/packet"
	"pi2/internal/tcp"
)

// Clock is the simulation-clock surface the engine drives: reading the
// current virtual time and translating every pending event past a committed
// epoch. Both *sim.Simulator and *sim.Coordinator satisfy it, so the engine
// composes with -shards unchanged (it runs on the coordinator thread between
// barrier windows, when every domain is parked).
type Clock interface {
	Now() time.Duration
	ShiftPending(delta time.Duration)
}

// Engine fast-forwards one bottleneck scenario: a link with a FastForwarder
// AQM and a fixed population of bulk TCP flows.
type Engine struct {
	clock   Clock
	link    *link.Link
	fwd     aqm.FastForwarder
	tupdate time.Duration
	target  time.Duration

	// Per-flow state by writer, so no cache line is written by both
	// stages: stage A's flows and verdicts, stage B's steps and cwnd.
	flows    []flow
	verdicts []verdict
	steps    []step
	cwnd     []float64

	// Work sharing, reused across epochs: stage B's period inputs by parity;
	// under mu, the stage-B batches released and claimed (counted in epoch
	// order), each batch slot's finished periods, the stop flag and the
	// helper's panic. helperFn is e.helper bound once: `go e.helper()`
	// would allocate a closure per epoch.
	period            [2]periodIn
	mu                sync.Mutex
	wake              sync.Cond // on mu: a batch released or finished, or stop
	released, claimed int
	done              []int
	stop              bool
	helperPanic       any
	helperDone        sync.WaitGroup
	helperFn          func()
	// Test hooks: pipe +1 forces the helper and -1 keeps it off; takes,
	// if set, says whether the helper (true) or stage A claims batch g.
	pipe  int
	takes func(g int) bool

	// ForceZero is a test hook: epochs are detected (and counted in
	// ZeroEpochs) but commit zero periods, mutating nothing — the
	// zero-length-epoch byte-identity property test drives this.
	ForceZero bool

	// Telemetry: committed epochs, detected-but-empty epochs, virtual
	// packets decided, and total virtual time skipped.
	Epochs, ZeroEpochs int
	VirtualPkts        uint64
	FFTime             time.Duration
	// OverflowPeriods counts committed periods whose fluid backlog
	// exceeded the buffer, and OverflowBytes the fluid bytes above it.
	// The queue is clamped to the buffer without counting the excess as
	// drops, although those bytes were already credited as goodput.
	OverflowPeriods int
	OverflowBytes   float64
}

// batch is the unit of stage-B work, in flows, and minBatches the fewest
// batches an epoch starts a helper for: below it a period's work is too
// short to hide the cost of waking a parked goroutine (DESIGN.md has the
// measured crossover).
const batch, minBatches = 256, 5

// flow is one bulk flow's stage-A state. The ECN codepoint and base RTT are
// fixed by the endpoint's Config, so New reads them once.
type flow struct {
	ecn      packet.ECN
	scalable bool
	baseRTT  time.Duration

	// credit accumulates the flow's fractional virtual packets
	// (cwnd·dt/rtt per period); the integer part is sent. Deterministic —
	// no rounding RNG — and it carries across epochs so long-run rates are
	// exact.
	credit float64
	// nextReact gates a classic flow's congestion reaction to once per
	// RTT in virtual time, mirroring packet mode's sequence-space (cwrEnd)
	// gate.
	nextReact time.Duration
}

// verdict is a flow's period from stage A: packets accepted and CE-marked,
// and whether it takes a classic congestion reaction.
type verdict struct {
	acc, mk int32
	react   bool
}

// step is one bulk flow's stage-B state, the only handle on its endpoint.
type step struct {
	ep       *tcp.Endpoint
	scalable bool
	baseRTT  time.Duration
	// recoverExit schedules the virtual full-ACK recovery exit for a flow
	// frozen in fast recovery: packet-mode recovery lasts one
	// retransmission round trip, so a flow seen in recovery leaves it one
	// virtual RTT later (zero = not scheduled).
	recoverExit time.Duration
}

// periodIn is the period's queue delay and start time, for stage B.
type periodIn struct{ qd, vnow time.Duration }

// New builds an engine over the scenario's bottleneck and bulk flows. It
// reports false when the link's AQM does not support fast-forward stepping
// (no FastForwarder interface, or no periodic update law to step).
func New(clock Clock, l *link.Link, eps []*tcp.Endpoint) (*Engine, bool) {
	fwd, ok := l.FFAQM()
	if !ok || len(eps) == 0 {
		return nil, false
	}
	tup := l.AQM().UpdateInterval()
	if tup <= 0 {
		return nil, false
	}
	e := &Engine{
		clock:    clock,
		link:     l,
		fwd:      fwd,
		tupdate:  tup,
		target:   fwd.FFTarget(),
		flows:    make([]flow, len(eps)),
		steps:    make([]step, len(eps)),
		verdicts: make([]verdict, len(eps)),
		cwnd:     make([]float64, len(eps)),
	}
	for i, ep := range eps {
		ecn := ep.DataECN()
		e.flows[i] = flow{ecn: ecn, scalable: ecn == packet.ECT1, baseRTT: ep.BaseRTT()}
		e.steps[i] = step{ep: ep, scalable: ecn == packet.ECT1, baseRTT: ep.BaseRTT()}
	}
	e.done = make([]int, (len(eps)+batch-1)/batch)
	e.wake.L = &e.mu
	e.helperFn = e.helper
	return e, true
}

// Tupdate returns the AQM control interval the engine steps by.
func (e *Engine) Tupdate() time.Duration { return e.tupdate }

// Quiescent reports whether the system is in a fast-forwardable state right
// now: every flow analytically advanceable (congestion avoidance, no
// out-of-order or SACK state) and the queue parked inside the entry band
// around the AQM operating point — close enough to target that the
// linearized fluid picture holds, and busy, so the epoch's time counts as
// utilized capacity.
func (e *Engine) Quiescent() bool {
	qd := e.link.QueueDelayNow()
	if qd < e.target/2 || qd > 2*e.target || !e.link.Busy() {
		return false
	}
	for i := range e.steps {
		if !e.steps[i].ep.FFEligible() {
			return false
		}
	}
	return true
}

// TryAdvance attempts one fast-forward epoch from the current instant,
// never crossing barrier (the next scheduled discontinuity: warm-up reset
// or end of run). It returns the committed virtual time (0 when the system
// is not quiescent or the barrier is too close). Each AQM update period is
// simulated and committed in sequence; the epoch ends at the barrier or
// when the fluid queue leaves the stay band (0, 4·target).
func (e *Engine) TryAdvance(barrier time.Duration) time.Duration {
	now := e.clock.Now()
	if barrier-now < e.tupdate || !e.Quiescent() {
		return 0
	}
	if e.ForceZero {
		e.ZeroEpochs++
		return 0
	}
	periods := e.epoch(now, int((barrier-now)/e.tupdate))
	delta := time.Duration(periods) * e.tupdate
	// Commit: translate the frozen packet world past the epoch — pending
	// events, queued packets' timestamps and each flow's send timestamps
	// all move by delta.
	e.clock.ShiftPending(delta)
	e.link.FFShift(delta)
	for i := range e.steps {
		e.steps[i].ep.FFShift(delta)
	}
	e.Epochs++
	e.FFTime += delta
	return delta
}

// epoch runs up to maxPeriods update periods from vnow and returns how many
// it committed. A helper shares stage B when another core can take it and
// the flows fill minBatches; otherwise stage A runs every stage-B batch
// itself, each just before the batch's next stage A.
func (e *Engine) epoch(vnow time.Duration, maxPeriods int) (periods int) {
	nb := len(e.done)
	helper := e.pipe > 0 || e.pipe == 0 && nb >= minBatches && runtime.GOMAXPROCS(0) > 1
	for i := range e.steps {
		e.cwnd[i] = e.steps[i].ep.FFCwnd()
	}
	e.released, e.claimed, e.stop = 0, 0, false
	clear(e.done)
	if helper {
		e.helperDone.Add(1)
		go e.helperFn()
		defer e.join()
	}
	rate := e.link.RateBps()
	bufBytes := float64(e.link.BufferPackets() * packet.FullLen)
	q := float64(e.link.BacklogBytes())
	dt := e.tupdate.Seconds()
	drain := rate * dt / 8
	for j := 0; j < maxPeriods; j++ {
		qdNow := byteDelay(q, rate)
		e.period[j&1] = periodIn{qdNow, vnow}
		var accAll, markAll, dropAll int
		for b := 0; b < nb; b++ {
			// A flow's stage A needs its stage B of the period before.
			if !e.stepUntil(b, j, false) {
				return 0 // the helper panicked: join re-raises it
			}
			acc, mk, dr := e.decide(b*batch, min(b*batch+batch, len(e.flows)), int(q), qdNow, vnow, dt)
			accAll += acc
			markAll += mk
			dropAll += dr
			e.mu.Lock()
			e.released++
			e.wake.Broadcast()
			e.mu.Unlock()
		}
		// Fluid backlog step: accepted arrivals minus one period of drain.
		// Dropped packets never occupy the queue; the stay band keeps the
		// link busy so the drain term is exact.
		q += float64(accAll*packet.FullLen) - drain
		if q < 0 {
			q = 0
		}
		if q > bufBytes {
			e.OverflowPeriods++
			e.OverflowBytes += q - bufBytes
			q = bufBytes
		}
		qdEnd := byteDelay(q, rate)
		e.link.FFApply(accAll, markAll, dropAll, qdNow)
		e.fwd.FFUpdate(qdEnd)
		e.VirtualPkts += uint64(accAll + dropAll)
		vnow += e.tupdate
		periods = j + 1
		if q <= 0 || qdEnd >= 4*e.target {
			break
		}
	}
	// Every released stage-B batch runs before the epoch commits.
	for b := 0; b < nb; b++ {
		if !e.stepUntil(b, periods, false) {
			return 0
		}
	}
	return periods
}

// decide is stage A for flows [lo, hi): each flow's credit from its
// published window, its packets' verdicts and its reaction gate, in
// flow-major, packet-minor order — one RNG draw sequence, fixed by
// construction order, identical for any -shards value.
func (e *Engine) decide(lo, hi, backlog int, qd, vnow time.Duration, dt float64) (accAll, markAll, dropAll int) {
	base, rttS := time.Duration(-1), 0.0 // flows mostly share base RTTs
	for i := lo; i < hi; i++ {
		f := &e.flows[i]
		rtt := f.baseRTT + qd
		if f.baseRTT != base {
			base, rttS = f.baseRTT, rtt.Seconds()
		}
		f.credit += e.cwnd[i] * dt / rttS
		n := int(f.credit)
		if n <= 0 {
			e.verdicts[i] = verdict{}
			continue
		}
		f.credit -= float64(n)
		acc, mk, dr := e.fwd.FFDecideN(f.ecn, backlog, n)
		// CE on a classic (ECT0) flow is an ECE-path signal; on a scalable
		// flow it feeds the alpha cadence in stage B.
		react := (dr > 0 || (!f.scalable && mk > 0)) && vnow >= f.nextReact
		if react {
			f.nextReact = vnow + rtt
		}
		e.verdicts[i] = verdict{int32(acc), int32(mk), react}
		accAll += acc
		markAll += mk
		dropAll += dr
	}
	return accAll, markAll, dropAll
}

// stepWindows is stage B for flows [lo, hi): recovery exit, congestion
// reaction, window step and ledgers, then the window published for stage A.
func (e *Engine) stepWindows(lo, hi int, p periodIn) {
	for i := lo; i < hi; i++ {
		s, v := &e.steps[i], e.verdicts[i]
		ep := s.ep
		rtt := s.baseRTT + p.qd
		// A flow frozen in fast recovery exits it one virtual RTT after
		// first seen — the retransmission's flight time — so it does not
		// stay deaf to congestion signals for the whole epoch.
		if ep.FFInRecovery() {
			switch {
			case s.recoverExit == 0:
				s.recoverExit = p.vnow + rtt
			case p.vnow >= s.recoverExit:
				ep.FFExitRecovery()
				s.recoverExit = 0
			}
		} else if s.recoverExit != 0 {
			s.recoverExit = 0
		}
		if v.react {
			ep.FFSignal(p.vnow)
		}
		ccMarks := 0
		if s.scalable {
			ccMarks = int(v.mk)
		}
		ep.FFAdvance(int(v.acc), ccMarks, rtt, p.vnow)
		ep.FFApplyStats(int(v.acc), int(v.mk))
		e.cwnd[i] = ep.FFCwnd()
	}
}

// stepUntil runs released stage-B batches, claimed in epoch order, until
// batch slot b has finished n periods, parking while there is none to
// claim. Stage A calls it for the batch it needs next, so it never parks
// unless the helper is running the very batch it needs; the helper calls
// it for a target never met. It reports false once stop is set: for stage
// A, when the helper panicked; for the helper, at join.
func (e *Engine) stepUntil(b, n int, helper bool) bool {
	e.mu.Lock()
	for e.done[b] < n {
		if e.stop {
			e.mu.Unlock()
			return false
		}
		g := e.claimed
		if g == e.released || e.takes != nil && e.takes(g) != helper {
			e.wake.Wait()
			continue
		}
		e.claimed++
		e.mu.Unlock()
		lo := g % len(e.done) * batch
		e.stepWindows(lo, min(lo+batch, len(e.flows)), e.period[g/len(e.done)&1])
		e.mu.Lock()
		e.done[g%len(e.done)]++
		e.wake.Broadcast()
	}
	e.mu.Unlock()
	return true
}

// helper shares stage B with stage A until join stops it. On the way out it
// keeps its panic for join, which re-raises it, and stops stage A in case
// A awaits a batch the panic left unfinished.
func (e *Engine) helper() {
	defer func() {
		r := recover()
		e.mu.Lock()
		e.helperPanic, e.stop = r, true
		e.wake.Broadcast()
		e.mu.Unlock()
		e.helperDone.Done()
	}()
	e.stepUntil(0, math.MaxInt, true)
}

// join stops the helper, waits for it to exit and re-raises its panic.
// Deferred, it also reaps the helper when stage A panics.
func (e *Engine) join() {
	e.mu.Lock()
	e.stop = true
	e.wake.Broadcast()
	e.mu.Unlock()
	e.helperDone.Wait()
	if r := e.helperPanic; r != nil {
		e.helperPanic = nil
		panic(r)
	}
}

// byteDelay converts a backlog in bytes to queuing delay at rate bits/s.
func byteDelay(bytes, rate float64) time.Duration {
	return time.Duration(bytes * 8 / rate * float64(time.Second))
}
