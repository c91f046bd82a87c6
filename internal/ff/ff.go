// Package ff implements the hybrid fluid/packet fast-forward engine: when
// every bulk flow sits in congestion avoidance and the bottleneck queue is
// parked near the AQM's operating point, the packet world is frozen and the
// simulation advances analytically from one AQM update to the next —
// per-flow windows stepped in closed form by the congestion controls' own
// rules, the backlog evolved as a fluid (aggregate arrival minus drain), and
// mark/drop decisions drawn per flow and period in one batch call that makes
// the very draws packet mode would (aqm.FastForwarder loops over the same
// per-packet decision Enqueue makes). When the epoch ends, pending events and
// timestamped state are translated by the skipped interval, so packet mode
// resumes from a consistent instant.
//
// Each period runs as a two-stage pipeline over batches of flows: stage A
// decides the packets in flow order, stage B (inline, or on a helper
// goroutine when a second core is there) steps the windows. A flow's stage
// A needs only its own stage B of the period before, so the output is the
// same bytes either way.
//
// The engine never rolls back: each AQM update period commits as it is
// simulated, and the epoch simply ends when the stay band breaks. Entry and
// exit predicates, the RNG discipline, and the deliberate modeling
// deviations are documented in DESIGN.md ("Hybrid fluid/packet
// architecture").
package ff

import (
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

	// Pipeline state, reused across epochs: stage B's period inputs by
	// parity, the batch handoffs each way (a token per finished batch, -1
	// for the end), the helper's exit and its recovered panic. helperFn is
	// e.helper bound once, since `go e.helper()` would allocate a closure
	// per epoch.
	period      [2]periodIn
	toB, toA    chan int32
	helperDone  sync.WaitGroup
	helperPanic any
	helperFn    func()
	pipe        int // test hook: +1 forces the helper, -1 keeps B inline

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

// batch is the pipeline's handoff unit, in flows, and minBatches the
// fewest batches an epoch hands to a helper: below it a period's work is
// too short to hide the cost of waking a parked stage (DESIGN.md has the
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
	// Neither stage runs more than a period's batches ahead of the other,
	// so a handoff holds at most that many tokens, plus the -1.
	nb := (len(eps)+batch-1)/batch + 1
	e.toB, e.toA = make(chan int32, nb), make(chan int32, nb)
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
// it committed. Stage B runs on the helper when another core can take it
// and the flows fill minBatches; otherwise each batch's stage B runs inline
// right after its stage A.
func (e *Engine) epoch(vnow time.Duration, maxPeriods int) (periods int) {
	nb := (len(e.flows) + batch - 1) / batch
	helper := e.pipe > 0 || e.pipe == 0 && nb >= minBatches && runtime.GOMAXPROCS(0) > 1
	for i := range e.steps {
		e.cwnd[i] = e.steps[i].ep.FFCwnd()
	}
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
		for lo := 0; lo < len(e.flows); lo += batch {
			hi := min(lo+batch, len(e.flows))
			// A flow's stage A needs its stage B of the period before.
			if helper && j > 0 && <-e.toA < 0 {
				return 0 // the helper panicked: join re-raises it
			}
			acc, mk, dr := e.decide(lo, hi, int(q), qdNow, vnow, dt)
			accAll += acc
			markAll += mk
			dropAll += dr
			if helper {
				e.toB <- 0
			} else {
				e.stepWindows(lo, hi, e.period[j&1])
			}
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
	return periods
}

// decide is stage A for flows [lo, hi): each flow's credit from its
// published window, its packets' verdicts and its reaction gate, in
// flow-major, packet-minor order — one RNG draw sequence, fixed by
// construction order, identical for any -shards value.
func (e *Engine) decide(lo, hi, backlog int, qd, vnow time.Duration, dt float64) (accAll, markAll, dropAll int) {
	for i := lo; i < hi; i++ {
		f := &e.flows[i]
		rtt := f.baseRTT + qd
		f.credit += e.cwnd[i] * dt / rtt.Seconds()
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

// helper runs stage B on each batch stage A hands it, in order, until join
// hands it -1. On the way out it keeps its panic for join, which re-raises
// it, and hands stage A a -1 in case A awaits a batch.
func (e *Engine) helper() {
	defer func() {
		e.helperPanic = recover()
		e.toA <- -1
		e.helperDone.Done()
	}()
	nb := (len(e.flows) + batch - 1) / batch
	for b := 0; <-e.toB >= 0; b++ {
		lo := b % nb * batch
		e.stepWindows(lo, min(lo+batch, len(e.flows)), e.period[b/nb&1])
		e.toA <- 0
	}
}

// join ends the helper after the batches stage A handed it, waits for it to
// exit, empties both handoffs for the next epoch and re-raises the helper's
// panic. Deferred, it also reaps the helper when stage A panics.
func (e *Engine) join() {
	e.toB <- -1
	e.helperDone.Wait()
	for len(e.toA) > 0 {
		<-e.toA
	}
	for len(e.toB) > 0 {
		<-e.toB
	}
	if r := e.helperPanic; r != nil {
		e.helperPanic = nil
		panic(r)
	}
}

// byteDelay converts a backlog in bytes to queuing delay at rate bits/s.
func byteDelay(bytes, rate float64) time.Duration {
	return time.Duration(bytes * 8 / rate * float64(time.Second))
}
