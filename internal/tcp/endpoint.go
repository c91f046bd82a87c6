package tcp

import (
	"fmt"
	"time"

	"pi2/internal/packet"
	"pi2/internal/sim"
	"pi2/internal/stats"
)

// ECNMode selects how a flow uses ECN.
type ECNMode int

const (
	// ECNOff sends Not-ECT; congestion is signalled by loss.
	ECNOff ECNMode = iota
	// ECNClassic sends ECT(0) and responds to CE like a loss, once per RTT
	// (RFC 3168 ECE/CWR handshake) — the paper's "ECN-Cubic".
	ECNClassic
	// ECNScalable sends ECT(1) and consumes per-ACK accurate CE feedback
	// (DCTCP and the idealized Scalable control).
	ECNScalable
)

// String implements fmt.Stringer.
func (m ECNMode) String() string {
	switch m {
	case ECNOff:
		return "noecn"
	case ECNClassic:
		return "classic-ecn"
	case ECNScalable:
		return "scalable-ecn"
	}
	return "invalid"
}

// Config describes one TCP flow through the bottleneck.
type Config struct {
	// ID is the flow identifier (must be unique on the link).
	ID int
	// CC is the congestion control module. Required.
	CC CongestionControl
	// ECN selects the flow's ECN behaviour.
	ECN ECNMode
	// BaseRTT is the two-way propagation delay excluding queuing.
	BaseRTT time.Duration
	// FlowSegs bounds the flow length in segments (0 = unlimited bulk).
	FlowSegs int64
	// OnComplete fires when a finite flow has all data acknowledged.
	OnComplete func(now time.Duration)
	// SACK enables selective acknowledgments with RFC 6675-style
	// recovery instead of NewReno dupack counting.
	SACK bool
	// AckEvery enables delayed/stretch ACKs: the receiver acknowledges
	// every Nth in-order segment (default 1 = every segment). Out-of-
	// order arrivals, CE-state changes (for Scalable flows) and the
	// delayed-ACK timer force immediate ACKs, as in real stacks.
	AckEvery int
	// SplitPropagation moves the whole BaseRTT out of the endpoint: the
	// sharded runner charges one-way propagation on each cross-domain wire
	// (sender→link and link→receiver), so the internal ACK path becomes
	// zero-delay. Total sender-observed RTT is unchanged — BaseRTT +
	// queuing + serialization — but the delay now lives on mailbox edges
	// where it provides conservative-PDES lookahead. Unsharded runs leave
	// this false and keep the classic all-on-the-ACK-path accounting.
	SplitPropagation bool
}

const (
	minRTO     = 200 * time.Millisecond // Linux lower bound
	maxRTO     = 60 * time.Second
	initialRTO = time.Second // RFC 6298 before the first RTT sample
	// initialCwnd is the initial window in segments (IW10, like modern
	// Linux).
	initialCwnd = 10
	// delAckTimeout bounds how long an ACK may be withheld (the Linux
	// quick-ack ballpark).
	delAckTimeout = 40 * time.Millisecond
)

// Endpoint is one TCP connection: the sender and its receiver, wired through
// the shared bottleneck. The receiver logically sits at the far end of the
// link; ACKs return to the sender after the flow's base RTT, so the RTT a
// sender observes is BaseRTT + queuing + serialization.
type Endpoint struct {
	cfg     Config
	sim     *sim.Simulator
	enqueue func(*packet.Packet)
	cc      CongestionControl
	state   State

	// Sender state (sequence numbers count whole segments).
	sndUna     int64
	sndNxt     int64
	meta       segRing
	dupacks    int
	recover    int64
	rtoGuard   int64 // RFC 6582: no fast retransmit for pre-RTO dupacks
	inflation  float64
	cwrEnd     int64 // classic-ECN: next ECE reaction allowed past this seq
	cwrPend    bool  // set CWR on the next new data segment
	rtoTimer   sim.Timer
	rtoBackoff int
	hystart    bool
	stopped    bool
	started    bool
	completed  bool

	// pool recycles this endpoint's packets; pre-bound method values below
	// keep the per-segment and per-ACK scheduling allocation-free (a fresh
	// closure per event was a top allocation site in profiles).
	// delAckFireFn is bound only with Config.AckEvery > 1: no other flow
	// can arm that timer. The ACK lane and its arrival callback belong to
	// the flow's group.
	pool         *packet.Pool
	onRTOFn      sim.Event
	delAckFireFn sim.Event
	grp          *Group

	// SACK scoreboard cursors and counters (used only with Config.SACK);
	// its per-segment bits live in meta.
	sack sackBoard

	// Receiver state.
	rcvNxt       int64
	oooSorted    []int64 // out-of-order segments, ascending
	eceLatch     bool
	ackPending   int
	rcvLastCE    bool
	rcvRecentSeq int64 // segment whose arrival triggered the pending ACK
	delAck       sim.Timer

	// Statistics. RTT estimates live in State (SRTT, RTTVar, MinRTT).
	Goodput          stats.RateMeter // in-order payload bytes delivered
	retransmissions  int
	congestionEvents int
	rtoCount         int
	marksSeen        int
	ceAcked          int
	startedAt        time.Duration
	completedAt      time.Duration
}

// seqBinder is implemented by congestion controls that track observation
// windows over sequence space (DCTCP, Prague): the endpoint hands them
// pointers to its live cumulative-ACK and next-send sequence numbers.
type seqBinder interface {
	bindSeq(sndUna, sndNxt *int64)
}

// BindSeq connects a congestion control that tracks observation windows in
// sequence space to external sequence counters, returning whether the
// control needed one. Endpoints do this automatically; it is exported so
// benchmarks and closed-form tests can drive such a control standalone.
func BindSeq(cc CongestionControl, sndUna, sndNxt *int64) bool {
	sb, ok := cc.(seqBinder)
	if ok {
		sb.bindSeq(sndUna, sndNxt)
	}
	return ok
}

// Enqueuer is the bottleneck's ingress: it takes ownership of the packet.
// (*link.Link).Enqueue satisfies it, whatever the link's queue discipline.
type Enqueuer func(*packet.Packet)

// init sets up a group's flow in place; ring is its first sender ring.
func (e *Endpoint) init(s *sim.Simulator, enqueue Enqueuer, g *Group, cfg Config, ring []segMeta) {
	e.cfg = cfg
	e.sim = s
	e.enqueue = enqueue
	e.cc = cfg.CC
	e.pool = g.pool
	e.grp = g
	e.onRTOFn = e.onRTO
	if cfg.AckEvery > 1 {
		e.delAckFireFn = e.delAckFire
	}
	e.meta = segRing{buf: ring, mask: int64(len(ring) - 1)}
	e.state = State{
		Cwnd:     initialCwnd,
		Ssthresh: 1 << 30,
		MinCwnd:  2,
	}
	e.cc.Init(&e.state)
	if sb, ok := e.cc.(seqBinder); ok {
		sb.bindSeq(&e.sndUna, &e.sndNxt)
	}
	if h, ok := e.cc.(interface{ UseHyStart() bool }); ok {
		e.hystart = h.UseHyStart()
	}
}

// ID returns the flow id.
func (e *Endpoint) ID() int { return e.cfg.ID }

// CCName returns the congestion control's name.
func (e *Endpoint) CCName() string { return e.cc.Name() }

// State exposes the congestion state (read-mostly; used by tests/monitors).
func (e *Endpoint) State() *State { return &e.state }

// Start begins transmission at the current simulation time.
func (e *Endpoint) Start() {
	if e.started {
		return
	}
	e.started = true
	e.startedAt = e.sim.Now()
	e.Goodput.Reset(e.sim.Now())
	e.trySend()
}

// Stop ceases sending new data; in-flight segments drain naturally.
// Used by the varying-intensity experiments to retire flows.
func (e *Endpoint) Stop() {
	e.stopped = true
	e.rtoTimer.Stop()
	e.rtoTimer = sim.Timer{}
}

// Stopped reports whether the flow has been stopped.
func (e *Endpoint) Stopped() bool { return e.stopped }

// Completed reports whether a finite flow has delivered all its data.
func (e *Endpoint) Completed() bool { return e.completed }

// FCT returns a completed flow's completion time (0 if not completed).
func (e *Endpoint) FCT() time.Duration {
	if !e.completed {
		return 0
	}
	return e.completedAt - e.startedAt
}

// Retransmissions returns the retransmitted-segment count.
func (e *Endpoint) Retransmissions() int { return e.retransmissions }

// CongestionEvents returns how many multiplicative decreases occurred.
func (e *Endpoint) CongestionEvents() int { return e.congestionEvents }

// MarksSeen returns how many CE-marked segments the receiver observed.
func (e *Endpoint) MarksSeen() int { return e.marksSeen }

// CEAcked returns how many CE-marked segments the sender has seen covered by
// accurate-ECN feedback (advancing ACKs with the CE bit, counted even during
// recovery). For a Scalable flow with no loss, reordering or duplication it
// must equal both MarksSeen and the AQM's per-flow mark count — the
// conformance identity the ECN-sanity tests assert.
func (e *Endpoint) CEAcked() int { return e.ceAcked }

// RTOCount returns how many retransmission timeouts fired.
func (e *Endpoint) RTOCount() int { return e.rtoCount }

// ecnCodepoint returns the codepoint for outgoing data.
func (e *Endpoint) ecnCodepoint() packet.ECN {
	switch e.cfg.ECN {
	case ECNClassic:
		return packet.ECT0
	case ECNScalable:
		return packet.ECT1
	default:
		return packet.NotECT
	}
}

// --- sender ---

func (e *Endpoint) window() float64 { return e.state.Cwnd + e.inflation }

func (e *Endpoint) hasData(seq int64) bool {
	if e.stopped {
		return false
	}
	return e.cfg.FlowSegs == 0 || seq < e.cfg.FlowSegs
}

func (e *Endpoint) trySend() {
	if e.cfg.SACK {
		e.sackSend()
		return
	}
	for float64(e.sndNxt-e.sndUna) < e.window() && e.hasData(e.sndNxt) {
		e.sendSeg(e.sndNxt, false)
		e.sndNxt++
	}
}

func (e *Endpoint) sendSeg(seq int64, retx bool) {
	now := e.sim.Now()
	p := e.pool.NewData(e.cfg.ID, seq, packet.MSS, e.ecnCodepoint())
	p.SentAt = now
	p.Retransmit = retx
	if e.cwrPend && !retx {
		p.Flags |= packet.FlagCWR
		e.cwrPend = false
	}
	e.meta.sent(seq, now, retx)
	if retx {
		e.retransmissions++
	}
	e.enqueue(p)
	// Arm (but never restart) the retransmission timer: restarting on
	// every transmission would let a steady stream of new data postpone
	// the timeout indefinitely while the ACK point is stuck.
	if !e.rtoTimer.Active() {
		e.armRTO()
	}
}

// armRTO (re)starts the retransmission timer. Nearly every call finds the
// timer pending (each advancing ACK restarts it), so it is re-armed in place.
func (e *Endpoint) armRTO() {
	at := e.sim.Now() + e.rtoInterval()
	if !e.rtoTimer.Reset(at) {
		e.rtoTimer = e.sim.At(at, e.onRTOFn)
	}
}

func (e *Endpoint) rtoInterval() time.Duration {
	var d time.Duration
	if e.state.SRTT == 0 {
		d = initialRTO
	} else {
		d = e.state.SRTT + 4*e.state.RTTVar
		if d < minRTO {
			d = minRTO
		}
	}
	d <<= e.rtoBackoff
	if d > maxRTO {
		d = maxRTO
	}
	return d
}

func (e *Endpoint) onRTO() {
	// Clear before anything else: the timer is firing, so Active() would
	// still report true for the executing slot, and sendSeg below must be
	// free to re-arm.
	e.rtoTimer = sim.Timer{}
	if e.sndNxt == e.sndUna || e.stopped {
		return
	}
	now := e.sim.Now()
	e.rtoCount++
	e.cc.OnRTO(&e.state, now)
	e.congestionEvents++
	e.state.InRecovery = false
	e.inflation = 0
	e.dupacks = 0
	e.rtoBackoff++
	if e.rtoBackoff > 8 {
		e.rtoBackoff = 8
	}
	// RFC 6582: dupacks for data sent before this timeout must not
	// trigger fast retransmit.
	if e.sndNxt > e.rtoGuard {
		e.rtoGuard = e.sndNxt
	}
	// Go-back-N: rewind and retransmit from the ACK point.
	if e.cfg.SACK {
		e.sack.reset(&e.meta, e.sndUna)
	}
	e.sndNxt = e.sndUna
	e.sendSeg(e.sndNxt, true)
	e.sndNxt++
}

// onAck processes an arriving cumulative acknowledgment.
func (e *Endpoint) onAck(p *packet.Packet) {
	if e.stopped && e.sndNxt == e.sndUna {
		return
	}
	now := e.sim.Now()

	// Classic-ECN echo: react at most once per RTT, like a loss but with
	// no retransmission; tell the receiver via CWR.
	if p.Flags.Has(packet.FlagECE) && e.cfg.ECN == ECNClassic {
		if p.Ack > e.cwrEnd && !e.state.InRecovery {
			e.cc.OnCongestionEvent(&e.state, now)
			e.congestionEvents++
			e.cwrEnd = e.sndNxt
			e.cwrPend = true
		}
	}

	switch {
	case p.Ack > e.sndUna:
		acked := int(p.Ack - e.sndUna)
		// Accurate-ECN feedback is only meaningful when negotiated: a
		// Scalable control wired with classic (or no) ECN must fall back
		// to the once-per-RTT ECE reaction above, not double-react to the
		// per-ACK CE bit the receiver happens to copy out.
		ackedCE := p.AckedCE && e.cfg.ECN == ECNScalable
		if ackedCE {
			// Count CE-marked segments even during recovery (when the
			// congestion control is not consulted): this is the sender's
			// ledger the ECN conformance tests reconcile against the
			// AQM's per-flow mark count.
			e.ceAcked += acked
		}
		e.sampleRTT(p.Ack-1, now)
		if e.cfg.SACK {
			e.sack.advance(&e.meta, e.sndUna, p.Ack)
		}
		e.meta.ackTo(p.Ack)
		e.sndUna = p.Ack
		if e.sndNxt < e.sndUna {
			// A pre-timeout segment filled the hole past the
			// go-back-N point: resume sending from the ACK.
			e.sndNxt = e.sndUna
		}
		e.dupacks = 0
		e.rtoBackoff = 0
		if e.cfg.SACK {
			e.processSACK(p)
		}
		if e.state.InRecovery {
			if e.sndUna >= e.recover {
				// Full ACK: leave recovery.
				e.state.InRecovery = false
				e.inflation = 0
			} else if !e.cfg.SACK {
				// NewReno partial ACK: retransmit the next hole,
				// deflate. (SACK recovery retransmits from its
				// scoreboard instead.)
				e.inflation -= float64(acked)
				if e.inflation < 0 {
					e.inflation = 0
				}
				e.sendSeg(e.sndUna, true)
			}
		} else {
			e.cc.OnAck(&e.state, acked, ackedCE, now)
		}
		if e.sndNxt > e.sndUna {
			e.armRTO()
		} else {
			e.rtoTimer.Stop()
			e.rtoTimer = sim.Timer{}
		}
		e.checkComplete(now)

	case p.Ack == e.sndUna && e.sndNxt > e.sndUna:
		if e.cfg.SACK {
			// SACK mode: the scoreboard, not dupack counting,
			// drives recovery and retransmission.
			e.processSACK(p)
			break
		}
		e.dupacks++
		if e.state.InRecovery {
			// Inflate to keep the ACK clock running, but never beyond
			// twice the window: recovery must not become an unbounded
			// source of new data while the retransmission is missing.
			if e.inflation < 2*e.state.Cwnd {
				e.inflation++
			}
		} else if e.dupacks == 3 && e.sndUna >= e.rtoGuard {
			e.enterRecovery(now)
			e.inflation = 3
			e.sendSeg(e.sndUna, true)
		}
	}
	e.trySend()
}

// enterRecovery starts a fast-recovery episode, NewReno's or SACK's: one
// congestion event, lasting until the ACK point passes what was sent so far.
func (e *Endpoint) enterRecovery(now time.Duration) {
	e.state.InRecovery = true
	e.recover = e.sndNxt
	e.cc.OnCongestionEvent(&e.state, now)
	e.congestionEvents++
}

func (e *Endpoint) sampleRTT(seq int64, now time.Duration) {
	m, ok := e.meta.get(seq)
	if !ok || m.retx {
		return // Karn's algorithm: never sample retransmitted segments
	}
	e.observeRTT(now - m.sentAt)
}

// observeRTT applies one RTT sample: the path minimum, HyStart's delay exit
// and the RFC 6298 smoothing. Packet mode and the fast-forward stepper both
// feed it.
func (e *Endpoint) observeRTT(rtt time.Duration) {
	s := &e.state
	if s.MinRTT == 0 || rtt < s.MinRTT {
		s.MinRTT = rtt
	}
	// HyStart (delay-increase half, as in Linux Cubic): leave slow start
	// once queuing pushes the RTT measurably above the path minimum,
	// long before the overshoot-and-halve of classical slow start.
	if e.hystart && s.InSlowStart() && s.Cwnd >= 16 {
		thresh := s.MinRTT + max(4*time.Millisecond, s.MinRTT/8)
		if rtt > thresh {
			s.Ssthresh = s.Cwnd
		}
	}
	if s.SRTT == 0 {
		s.SRTT = rtt
		s.RTTVar = rtt / 2
		return
	}
	diff := s.SRTT - rtt
	if diff < 0 {
		diff = -diff
	}
	s.RTTVar = (3*s.RTTVar + diff) / 4
	s.SRTT = (7*s.SRTT + rtt) / 8
}

func (e *Endpoint) checkComplete(now time.Duration) {
	if e.completed || e.cfg.FlowSegs == 0 || e.sndUna < e.cfg.FlowSegs {
		return
	}
	e.completed = true
	e.completedAt = now
	e.rtoTimer.Stop()
	e.rtoTimer = sim.Timer{}
	if e.cfg.OnComplete != nil {
		e.cfg.OnComplete(now)
	}
}

// --- receiver ---

// DeliverData is the link-side entry point: the bottleneck hands over a data
// segment that finished serialization. The receiver acknowledges it —
// immediately by default, or per the delayed/stretch-ACK policy when
// Config.AckEvery > 1 — and the ACK arrives back at the sender after the
// flow's base RTT.
func (e *Endpoint) DeliverData(p *packet.Packet) {
	e.receiveData(p)
	// The receiver is the data packet's terminal owner: everything needed
	// from it has been copied out, so the slot can be recycled.
	e.pool.Release(p)
}

func (e *Endpoint) receiveData(p *packet.Packet) {
	ce := p.ECN == packet.CE
	if ce {
		e.marksSeen++
	}
	switch e.cfg.ECN {
	case ECNClassic:
		if ce {
			e.eceLatch = true
		}
		if p.Flags.Has(packet.FlagCWR) {
			e.eceLatch = false
		}
	case ECNScalable:
		// DCTCP's delayed-ACK rule: a change in CE state flushes the
		// pending ACK first, so every ACK reports a uniform CE state
		// (accurate feedback survives aggregation).
		if e.ackPending > 0 && ce != e.rcvLastCE {
			e.sendAckNow(e.rcvLastCE)
		}
	}

	inOrder := p.Seq == e.rcvNxt
	switch {
	case inOrder:
		e.rcvNxt++
		e.Goodput.Add(int(p.PayloadLen))
		// Consume the now-in-order prefix, then compact by copying down:
		// reslicing the front (oooSorted[1:]) would slide the capacity
		// window forward and force insertOOO to reallocate on every
		// recovery episode.
		k := 0
		for k < len(e.oooSorted) && e.oooSorted[k] == e.rcvNxt {
			k++
			e.rcvNxt++
			e.Goodput.Add(packet.MSS)
		}
		if k > 0 {
			n := copy(e.oooSorted, e.oooSorted[k:])
			e.oooSorted = e.oooSorted[:n]
		}
	case p.Seq > e.rcvNxt:
		e.insertOOO(p.Seq)
	}

	e.ackPending++
	e.rcvLastCE = ce
	e.rcvRecentSeq = p.Seq
	if !inOrder || len(e.oooSorted) > 0 || e.ackPending >= e.cfg.AckEvery {
		e.sendAckNow(ce)
		return
	}
	if !e.delAck.Active() {
		e.delAck = e.sim.After(delAckTimeout, e.delAckFireFn)
	}
}

// delAckFire flushes a withheld ACK when the delayed-ACK timer expires.
func (e *Endpoint) delAckFire() {
	e.delAck = sim.Timer{}
	if e.ackPending > 0 {
		e.sendAckNow(e.rcvLastCE)
	}
}

// insertOOO adds seq to the sorted out-of-order list (idempotent).
func (e *Endpoint) insertOOO(seq int64) {
	lo, hi := 0, len(e.oooSorted)
	for lo < hi {
		mid := (lo + hi) / 2
		if e.oooSorted[mid] < seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(e.oooSorted) && e.oooSorted[lo] == seq {
		return // duplicate arrival
	}
	if cap(e.oooSorted) == 0 {
		e.oooSorted = e.grp.oooBuf(e)
	}
	e.oooSorted = append(e.oooSorted, 0)
	copy(e.oooSorted[lo+1:], e.oooSorted[lo:])
	e.oooSorted[lo] = seq
}

// sendAckNow emits the cumulative ACK covering everything pending.
func (e *Endpoint) sendAckNow(ce bool) {
	e.delAck.Stop()
	e.delAck = sim.Timer{}
	e.ackPending = 0
	ack := e.pool.NewAck(e.cfg.ID, e.rcvNxt)
	ack.AckedCE = ce
	if e.eceLatch {
		ack.Flags |= packet.FlagECE
	}
	if e.cfg.SACK && len(e.oooSorted) > 0 {
		ack.SACK = sackBlocks(e.oooSorted, e.rcvRecentSeq)
	}
	// The reverse path is a constant delay, so the ACK rides the group's
	// lane in its arrival event's slot, read back by the group's pre-bound
	// callback instead of a closure per ACK.
	g := e.grp
	g.lane.AfterPacket(g.ackDelay, ack, g.arrive)
}

// String implements fmt.Stringer for diagnostics.
func (e *Endpoint) String() string {
	return fmt.Sprintf("flow %d (%s, %v): cwnd=%.1f una=%d nxt=%d",
		e.cfg.ID, e.cc.Name(), e.cfg.ECN, e.state.Cwnd, e.sndUna, e.sndNxt)
}
