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
// The engine never rolls back: each AQM update period commits as it is
// simulated, and the epoch simply ends when the stay band breaks. Entry and
// exit predicates, the RNG discipline, and the deliberate modeling
// deviations are documented in DESIGN.md ("Hybrid fluid/packet
// architecture").
package ff

import (
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
	flows   []flow
	tupdate time.Duration
	target  time.Duration

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

// flow is one bulk flow's fast-forward state. The ECN codepoint and base
// RTT are fixed by the endpoint's Config, so New reads them once.
type flow struct {
	ep       *tcp.Endpoint
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
	// recoverExit schedules the virtual full-ACK recovery exit for a flow
	// frozen in fast recovery: packet-mode recovery lasts one
	// retransmission round trip, so a flow seen in recovery leaves it one
	// virtual RTT later (zero = not scheduled).
	recoverExit time.Duration
}

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
	flows := make([]flow, len(eps))
	for i, ep := range eps {
		ecn := ep.DataECN()
		flows[i] = flow{ep: ep, ecn: ecn, scalable: ecn == packet.ECT1, baseRTT: ep.BaseRTT()}
	}
	return &Engine{
		clock:   clock,
		link:    l,
		fwd:     fwd,
		flows:   flows,
		tupdate: tup,
		target:  fwd.FFTarget(),
	}, true
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
	for i := range e.flows {
		if !e.flows[i].ep.FFEligible() {
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
	maxPeriods := int((barrier - now) / e.tupdate)
	rate := e.link.RateBps()
	bufBytes := float64(e.link.BufferPackets() * packet.FullLen)
	q := float64(e.link.BacklogBytes())
	dt := e.tupdate.Seconds()
	drain := rate * dt / 8
	vnow := now
	periods := 0
	for j := 0; j < maxPeriods; j++ {
		qdNow := byteDelay(q, rate)
		var accAll, markAll, dropAll int
		var inBytes float64
		for i := range e.flows {
			f := &e.flows[i]
			ep := f.ep
			rtt := f.baseRTT + qdNow
			// A flow frozen in fast recovery exits it one virtual RTT after
			// first seen — the retransmission's flight time — so it does not
			// stay deaf to congestion signals for the whole epoch.
			if ep.FFInRecovery() {
				switch {
				case f.recoverExit == 0:
					f.recoverExit = vnow + rtt
				case vnow >= f.recoverExit:
					ep.FFExitRecovery()
					f.recoverExit = 0
				}
			} else if f.recoverExit != 0 {
				f.recoverExit = 0
			}
			f.credit += ep.FFCwnd() * dt / rtt.Seconds()
			n := int(f.credit)
			if n <= 0 {
				continue
			}
			f.credit -= float64(n)
			// Flow-major, packet-minor decision order: one RNG draw
			// sequence, fixed by construction order, identical for any
			// -shards value.
			acc, mk, dr := e.fwd.FFDecideN(f.ecn, int(q), n)
			// CE on a classic (ECT0) flow is an ECE-path signal; on a
			// scalable flow it feeds the alpha cadence below.
			if (dr > 0 || (!f.scalable && mk > 0)) && vnow >= f.nextReact {
				ep.FFSignal(vnow)
				f.nextReact = vnow + rtt
			}
			ccMarks := 0
			if f.scalable {
				ccMarks = mk
			}
			ep.FFAdvance(acc, ccMarks, rtt, vnow)
			ep.FFApplyStats(acc, mk)
			accAll += acc
			markAll += mk
			dropAll += dr
			inBytes += float64(acc * packet.FullLen)
		}
		// Fluid backlog step: accepted arrivals minus one period of drain.
		// Dropped packets never occupy the queue; the stay band keeps the
		// link busy so the drain term is exact.
		q += inBytes - drain
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
	delta := time.Duration(periods) * e.tupdate
	// Commit: translate the frozen packet world past the epoch — pending
	// events, queued packets' timestamps and each flow's send timestamps
	// all move by delta.
	e.clock.ShiftPending(delta)
	e.link.FFShift(delta)
	for i := range e.flows {
		e.flows[i].ep.FFShift(delta)
	}
	e.Epochs++
	e.FFTime += delta
	return delta
}

// byteDelay converts a backlog in bytes to queuing delay at rate bits/s.
func byteDelay(bytes, rate float64) time.Duration {
	return time.Duration(bytes * 8 / rate * float64(time.Second))
}
