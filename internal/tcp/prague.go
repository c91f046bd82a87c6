package tcp

import (
	"math"
	"time"
)

// Prague implements the TCP Prague congestion control — the L4S reference
// scalable sender (draft-briscoe-iccrg-prague-congestion-control) that the
// DualPI2 half of the paper is designed to carry.
//
// It shares DCTCP's accurate-ECN observation window (ecnWindow: α updated
// once per round trip, one α/2 cut per marked window) and adds the Prague
// requirements:
//
//   - RTT independence toward a virtual RTT of 25 ms: a flow with RTT below
//     VirtualRTT damps its additive increase by (SRTT/VirtualRTT)^1.75 so it
//     competes like a flow near VirtualRTT instead of outpacing longer-RTT
//     traffic; reductions stay per marked observation window (DCTCP's
//     cadence). The two textbook scalings bracket the fair point in the
//     DualPI2 coupled equilibrium but miss it: equalizing window growth per
//     unit time (exponent 2) leaves a 10 ms Prague flow ~15% below its
//     coupled fair share against equal-RTT Cubic, and equalizing rate
//     growth (exponent 1) ~50% above it, because CE marks arrive in bursts
//     that the once-per-window reduction partially absorbs. The 1.75
//     exponent is calibrated so that pairing lands within a few percent of
//     equal rate at the paper's default 20 ms target — the interop tier
//     asserts the resulting Prague/Cubic ratio as an invariant. For
//     SRTT ≥ VirtualRTT the factor is 1 and Prague degenerates to DCTCP.
//
//   - Fractional-cwnd marking response for sub-packet windows: the window
//     floor is PragueMinCwnd (⅛ segment) instead of the Classic 2 segments,
//     and the multiplicative machinery keeps operating below one segment
//     (the endpoint still clocks out one segment per round trip; the
//     fractional window models the reduced rate between transmissions).
//     Growth below one segment divides by a floor of 1 so a sub-packet
//     window recovers at ≤ scaled-1-segment-per-RTT, never explosively.
//
//   - Classic fallback on loss: a loss (or RTO) is handled exactly like
//     Reno — halve (or collapse) the window — so Prague remains safe when
//     it meets a non-L4S bottleneck that drops instead of marking.
type Prague struct {
	ecnWindow
	// VirtualRTT is the RTT-independence target (25 ms by default).
	VirtualRTT time.Duration
	// DisableRTTIndependence turns Prague back into plain DCTCP-with-
	// fractional-cwnd (for ablations and closed-form tests).
	DisableRTTIndependence bool
}

// PragueMinCwnd is the fractional window floor in segments: Prague keeps
// responding to marks down to ⅛ of a segment instead of pinning at the
// Classic floor of 2, which is what keeps many sub-packet-window flows
// controllable by marking alone (RFC 9332's "fractional window" argument).
const PragueMinCwnd = 0.125

// pragueAIExponent shapes the RTT-independence damping of the additive
// increase (see the type comment for how it was calibrated against the
// DualPI2 coupled equilibrium).
const pragueAIExponent = 1.75

// Name implements CongestionControl.
func (p *Prague) Name() string { return "prague" }

// Init implements CongestionControl.
func (p *Prague) Init(s *State) {
	p.init()
	if p.VirtualRTT == 0 {
		p.VirtualRTT = 25 * time.Millisecond
	}
	// The endpoint initializes MinCwnd to the Classic floor before Init;
	// Prague lowers it to the fractional floor.
	s.MinCwnd = PragueMinCwnd
}

// effRTT is the round-trip time the virtual clock runs on: the smoothed RTT
// estimate, as in the reference Prague implementation (the flow's own queue
// sojourn is part of the round it schedules against).
func (p *Prague) effRTT(s *State) time.Duration { return s.SRTT }

// aiFactor damps the additive increase for RTT independence. The exponent
// sits between window-growth equalization (2) and rate-growth equalization
// (1); see the type comment for the calibration.
func (p *Prague) aiFactor(s *State) float64 {
	if p.DisableRTTIndependence {
		return 1
	}
	rtt := p.effRTT(s)
	if rtt == 0 || rtt >= p.VirtualRTT {
		return 1
	}
	r := float64(rtt) / float64(p.VirtualRTT)
	return math.Pow(r, pragueAIExponent)
}

// OnAck implements CongestionControl.
func (p *Prague) OnAck(s *State, acked int, ackedCE bool, now time.Duration) {
	// DCTCP's cadence: update α every round trip of sequence space and
	// reduce once if the window saw any mark. RTT independence lives
	// entirely in the increase; virtualizing the reduction cadence instead
	// was tried and absorbs mark bursts (several marked windows inside one
	// virtual RTT collapse into a single cut), overshooting the fair rate.
	p.onAck(s, acked, ackedCE)
	p.increase(s, acked)
}

// increase grows the window: unscaled slow start (HyStart-free, exited by
// the first marked window setting ssthresh), then scaled Reno-style
// congestion avoidance that stays well-defined for fractional windows.
func (p *Prague) increase(s *State, acked int) {
	f := float64(acked)
	// Appropriate Byte Counting, in float so sub-segment windows don't
	// truncate the credit to zero: no ACK may count more than one window.
	if s.Cwnd >= 1 && f > s.Cwnd {
		f = s.Cwnd
	}
	if s.InSlowStart() {
		inc := f
		if inc > s.Cwnd {
			inc = s.Cwnd
		}
		if s.Cwnd+inc > s.Ssthresh {
			// Finish slow start exactly at ssthresh; the remainder of
			// this ACK continues in congestion avoidance.
			inc = s.Ssthresh - s.Cwnd
		}
		s.Cwnd += inc
		f -= inc
		if f <= 0 {
			return
		}
	}
	den := s.Cwnd
	if den < 1 {
		// A sub-packet window still receives at most one ACK per round
		// trip; dividing by the true window would grow it by >1 segment
		// per RTT. The floor caps recovery at the scaled Reno slope.
		den = 1
	}
	s.Cwnd += p.aiFactor(s) * f / den
}

// OnCongestionEvent implements CongestionControl: classic fallback — loss is
// answered with a Reno halving, so Prague is safe behind drop-based AQMs.
func (p *Prague) OnCongestionEvent(s *State, now time.Duration) {
	Reno{}.OnCongestionEvent(s, now)
}

// OnRTO implements CongestionControl.
func (p *Prague) OnRTO(s *State, now time.Duration) {
	Reno{}.OnRTO(s, now)
	p.reset()
}
