package tcp

import (
	"time"

	"pi2/internal/packet"
)

// Fast-forward support: during a quiescent epoch the ff engine advances each
// bulk flow analytically — congestion-avoidance window growth in per-window
// steps using the congestion control's own update rules, marks and drops
// applied through the same reaction paths packet mode uses — while the
// packet world (sequence numbers, in-flight segments, timers) stays frozen
// and is translated in time when the epoch commits.
//
// Two modeling deviations are deliberate and documented in DESIGN.md:
//
//   - Frozen recovery: a flow in fast recovery — including the receiver's
//     out-of-order buffer for the hole the loss left — is tolerated. Loss
//     recovery is pure sequence-space state, and sequence space is frozen
//     during an epoch: the retransmission in flight and the RTO timer shift
//     with the event heap and resolve when packet mode resumes. During the
//     epoch the flow grows as congestion avoidance from its current window
//     and absorbs further signals, exactly as packet mode ignores signals
//     in recovery. At the heavy cells' operating point a strict no-recovery
//     predicate would never admit an epoch: with thousands of flows, some
//     flow is always a round trip away from a loss.
//
//   - Slow start is stepped by the congestion controls' own OnAck rules
//     (which implement slow start with ABC and the exact threshold finish),
//     and each virtual round trip feeds the endpoint's own RTT estimator,
//     HyStart delay-exit included, so a flow rejoining after an RTO
//     accelerates through the epoch much as it would packet by packet.

// ffSupportedCC reports whether the congestion control has an analytic
// stepping rule below.
func ffSupportedCC(cc CongestionControl) bool {
	switch cc.(type) {
	case Reno, *Cubic, *DCTCP, Scalable, *Prague:
		return true
	}
	return false
}

// FFEligible reports whether this flow can be analytically advanced right
// now: a started, unbounded bulk flow with no SACK scoreboard and a
// congestion control the analytic stepper supports. Fast recovery (with its
// frozen out-of-order receiver state) and slow start are both tolerated —
// see the package comment above.
func (e *sender) FFEligible() bool {
	return e.started && !e.stopped && !e.completed &&
		e.grp.cfg.FlowSegs == 0 && !e.grp.cfg.SACK &&
		ffSupportedCC(e.cc)
}

// DataECN returns the ECN codepoint this flow's data segments carry — the
// ff engine feeds it to the AQM's FFDecideN exactly as Enqueue would see it.
func (e *sender) DataECN() packet.ECN { return e.ect }

// BaseRTT returns the flow's two-way propagation delay.
func (e *sender) BaseRTT() time.Duration { return e.grp.cfg.BaseRTT }

// FFCwnd returns the congestion window in segments — the ff engine's
// per-flow sending rate is Cwnd/RTT, the congestion-avoidance fluid model.
func (e *sender) FFCwnd() float64 { return e.state.Cwnd }

// FFShift translates the endpoint's absolute-time state by delta after the
// simulator clock jumped over an epoch: per-segment send timestamps, so
// post-epoch RTT samples are not inflated by the jump. Scheduled timers
// (RTO, delayed-ACK) shift with the simulator's event heap; counters and
// rate-meter epochs deliberately do not (the epoch's virtual progress is
// patched in via FFApplyStats).
func (e *sender) FFShift(delta time.Duration) {
	if delta > 0 {
		e.meta.shift(delta)
	}
}

// ffChunk returns the next analytic stepping chunk: a quarter window, so
// the Euler step Cwnd += chunk/Cwnd stays within fractions of a percent of
// the per-ACK iteration it replaces (a full-window step overshoots ~1% per
// window on the Reno curve).
func (e *sender) ffChunk(rem int) int {
	if e.state.Cwnd < 8 {
		// int(Cwnd/4) ≤ 1: one ACK per step. The early return keeps the
		// chunk off the window's float-to-int dependency chain, which
		// otherwise serializes every step of a small window.
		return 1
	}
	chunk := int(e.state.Cwnd / 4)
	if chunk < 1 {
		chunk = 1
	}
	if chunk > rem {
		chunk = rem
	}
	return chunk
}

// ffWindowTick tracks virtual round-trip boundaries across sub-window
// chunks: it accumulates acknowledged segments and, once a full window has
// been covered, advances the virtual clock one RTT and applies one smoothed
// RTT sample — the packet-mode cadence.
type ffWindowTick struct {
	acks float64
	now  time.Duration
}

// add counts chunk acknowledged segments against the window cwnd and
// reports whether they completed a virtual round trip, advancing the
// virtual clock by rtt if so; the caller then applies the RTT sample. A
// chunk is at least one segment, so a sub-segment window closes a round on
// every chunk.
func (w *ffWindowTick) add(chunk int, cwnd float64, rtt time.Duration) bool {
	w.acks += float64(chunk)
	if w.acks >= cwnd {
		w.acks = 0
		w.now += rtt
		return true
	}
	return false
}

// FFAdvance analytically applies acked cumulative virtual acknowledgments
// (of which marked were CE-marked) at round-trip time rtt, starting at
// virtual time now. Growth proceeds in window-sized chunks — one chunk per
// virtual RTT — through the congestion control's real update rules, so the
// trajectory matches packet mode's per-ACK iteration to within chunking
// error. Classic controls ignore marked here: their once-per-RTT reaction
// goes through FFSignal, mirroring the ECE/loss paths.
func (e *sender) FFAdvance(acked, marked int, rtt, now time.Duration) {
	if acked <= 0 {
		return
	}
	s := &e.state
	tick := ffWindowTick{now: now}
	switch cc := e.cc.(type) {
	case Reno:
		e.ffRenoAdvance(acked, rtt, &tick)
	case *Cubic:
		for rem := acked; rem > 0; {
			chunk := e.ffChunk(rem)
			cc.OnAck(s, chunk, false, tick.now)
			if tick.add(chunk, s.Cwnd, rtt) {
				e.observeRTT(rtt)
			}
			rem -= chunk
		}
	case *DCTCP:
		e.ffAlphaAdvance(acked, marked, rtt, &tick, &cc.ecnWindow, nil)
	case *Prague:
		e.ffAlphaAdvance(acked, marked, rtt, &tick, &cc.ecnWindow, cc)
	case Scalable:
		// Equation (22): half a segment per CE mark, immediately; only
		// unmarked ACKs feed the Reno-like increase.
		if marked > 0 {
			s.Cwnd -= 0.5 * float64(marked)
			s.clampCwnd()
			if s.Ssthresh > s.Cwnd {
				s.Ssthresh = s.Cwnd
			}
		}
		e.ffRenoAdvance(acked-marked, rtt, &tick)
	}
}

// ffRenoAdvance steps acked acknowledgments through renoIncrease, the
// increase rule Reno (its OnAck) and Scalable share.
func (e *sender) ffRenoAdvance(acked int, rtt time.Duration, tick *ffWindowTick) {
	s := &e.state
	for rem := acked; rem > 0; {
		chunk := e.ffChunk(rem)
		renoIncrease(s, chunk)
		if tick.add(chunk, s.Cwnd, rtt) {
			e.observeRTT(rtt)
		}
		rem -= chunk
	}
}

// ffAlphaAdvance advances a DCTCP-cadence control (DCTCP, Prague): marks
// accumulate into the control's own observation window w, and the window
// closes — w.close, as in packet mode — each time a full congestion window
// of segments has been covered, which is what one round trip of sequence
// space amounts to. The sequence-space end is left alone, so a partially
// filled window survives entry and exit and the packet-mode cadence
// resumes seamlessly. The window grows by Prague's increase when prague is
// set, and by DCTCP's Reno increase otherwise.
func (e *sender) ffAlphaAdvance(acked, marked int, rtt time.Duration,
	tick *ffWindowTick, w *ecnWindow, prague *Prague) {
	s := &e.state
	rem, remM := acked, marked
	for rem > 0 {
		chunk := e.ffChunk(rem)
		mw := 0
		if remM > 0 {
			// Spread the marks proportionally over the remaining chunks.
			mw = (remM*chunk + rem - 1) / rem
			if mw > remM {
				mw = remM
			}
		}
		w.ackedSegs += chunk
		w.markedSegs += mw
		if w.ackedSegs >= int(s.Cwnd) {
			w.close(s)
		}
		if prague != nil {
			prague.increase(s, chunk)
		} else {
			renoIncrease(s, chunk)
		}
		if tick.add(chunk, s.Cwnd, rtt) {
			e.observeRTT(rtt)
		}
		rem -= chunk
		remM -= mw
	}
}

// FFSignal applies one classic congestion reaction (virtual drop, or CE on a
// classic-ECN flow) at virtual time now, mirroring the packet-mode ECE path:
// at most once per RTT — the ff engine gates calls in time, and the
// sequence-space gate (cwrEnd) is re-armed so the once-per-RTT rule holds
// across the epoch boundary too. A flow in frozen recovery absorbs the
// signal, exactly as packet mode ignores further signals during recovery.
// It reports whether a reduction was applied.
func (e *sender) FFSignal(now time.Duration) bool {
	if e.state.InRecovery {
		return false
	}
	e.cc.OnCongestionEvent(&e.state, now)
	e.congestionEvents++
	e.cwrEnd = e.sndNxt
	if e.classicECE {
		e.cwrPend = true
	}
	return true
}

// FFInRecovery exposes the fast-recovery flag to the ff engine, which
// schedules the virtual recovery exit below.
func (e *sender) FFInRecovery() bool { return e.state.InRecovery }

// FFExitRecovery mirrors the packet-mode full-ACK recovery exit
// (endpoint.onAck): recovery really lasts about one round trip — the
// retransmission's flight time — so a flow frozen in recovery leaves it one
// virtual RTT into the epoch instead of staying deaf to congestion signals
// for the whole epoch. The dupack counter is deliberately left above the
// fast-retransmit threshold: stale duplicate ACKs from the frozen flight
// must not re-trigger recovery when packet mode resumes (the counter only
// fires on exactly its third increment, and any cumulative advance resets
// it for genuinely new losses).
func (e *sender) FFExitRecovery() {
	e.state.InRecovery = false
	e.inflation = 0
}

// FFApplyStats patches the epoch's virtual progress into the flow's
// observable statistics: goodput bytes and the ECN ledgers the conformance
// tests reconcile (marksSeen at the virtual receiver; ceAcked for
// accurate-ECN feedback on Scalable flows).
func (e *Endpoint) FFApplyStats(acked, marked int) {
	if acked <= 0 {
		return
	}
	e.Goodput.Add(acked * packet.MSS)
	if e.ect != packet.NotECT {
		e.marksSeen += marked
	}
	if e.accurateCE {
		e.ceAcked += marked
	}
}
