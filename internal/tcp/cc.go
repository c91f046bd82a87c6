// Package tcp implements packet-level TCP endpoints for the simulator:
// sequence numbers, cumulative and delayed/stretch ACKs, duplicate-ACK fast
// retransmit with NewReno fast recovery or SACK recovery (sack.go),
// retransmission timeouts, classic-ECN (RFC 3168 ECE/CWR) and
// DCTCP-style accurate per-ACK ECN feedback — plus the congestion controls
// the paper evaluates: Reno, Cubic (with its CReno Reno-friendly region),
// DCTCP, TCP Prague (the L4S sender), and an idealized Scalable control.
//
// The congestion window is kept in segments (float64) as in the paper's
// window equations; every data segment carries one MSS.
//
// Flows are built in groups (group.go): NewGroup lays out a bulk group's
// endpoints, stateful congestion controls, first sender rings and first
// out-of-order buffers in per-group slabs, and binds the ACK-arrival and
// delivery callbacks once per group, so the only heap object a flow adds is
// its RTO callback. NewWithEnqueuer builds a group of one.
package tcp

import "time"

// State is the congestion state shared between the endpoint machinery and
// the pluggable congestion-control module.
type State struct {
	// Cwnd is the congestion window in segments.
	Cwnd float64
	// Ssthresh is the slow-start threshold in segments.
	Ssthresh float64
	// MinCwnd floors Cwnd after any reduction (2 segments, like Linux).
	MinCwnd float64
	// SRTT and RTTVar are the smoothed RTT estimate (RFC 6298).
	SRTT   time.Duration
	RTTVar time.Duration
	// MinRTT is the smallest RTT sample observed.
	MinRTT time.Duration
	// InRecovery reports whether the endpoint is in fast recovery.
	InRecovery bool
}

// InSlowStart reports whether the window is below the slow-start threshold.
func (s *State) InSlowStart() bool { return s.Cwnd < s.Ssthresh }

// clampCwnd enforces the window floor.
func (s *State) clampCwnd() {
	if s.Cwnd < s.MinCwnd {
		s.Cwnd = s.MinCwnd
	}
}

// CongestionControl is a pluggable window-update policy.
//
// The endpoint calls OnAck for every ACK that advances the cumulative
// acknowledgment, OnCongestionEvent at most once per round trip when loss or
// a classic-ECN echo is detected, and OnRTO on retransmission timeout.
type CongestionControl interface {
	// Name identifies the algorithm ("reno", "cubic", "dctcp", ...).
	Name() string
	// Init prepares algorithm state for a new connection.
	Init(s *State)
	// OnAck processes a cumulative ACK covering acked new segments.
	// ackedCE reports whether the newly acknowledged segment was
	// CE-marked (accurate-ECN feedback; only Scalable controls use it).
	OnAck(s *State, acked int, ackedCE bool, now time.Duration)
	// OnCongestionEvent applies the multiplicative decrease for a Classic
	// congestion signal (loss or RFC 3168 ECE). Called once per RTT.
	OnCongestionEvent(s *State, now time.Duration)
	// OnRTO resets after a retransmission timeout.
	OnRTO(s *State, now time.Duration)
}

// renoIncrease performs the shared Reno window growth: slow start below
// ssthresh, then one segment per window. Slow-start growth is capped at one
// window per ACK event (Appropriate Byte Counting, as in Linux), so a huge
// cumulative ACK — e.g. after a retransmission fills an old hole — cannot
// trigger a line-rate burst of thousands of segments.
func renoIncrease(s *State, acked int) {
	// No legitimate ACK covers more than one window of data; anything
	// larger (a cumulative ACK after an RTO rewound sndNxt) must not
	// inflate the window as if it were new progress. Capping the count and
	// its float together keeps this a predicted branch: a conditional move
	// would put a float-to-int round trip on the window's dependency chain
	// at every ACK.
	n := float64(acked)
	if n > s.Cwnd {
		acked = int(s.Cwnd)
		n = float64(acked)
	}
	if s.InSlowStart() {
		inc := n // at most Cwnd after the cap: ABC's one window per ACK
		if s.Cwnd+inc > s.Ssthresh {
			// Finish slow start exactly at ssthresh; the remainder
			// of this ACK continues in congestion avoidance.
			inc = s.Ssthresh - s.Cwnd
		}
		s.Cwnd += inc
		acked -= int(inc)
		if acked <= 0 {
			return
		}
		n = float64(acked)
	}
	s.Cwnd += n / s.Cwnd
}

// Reno is TCP Reno/NewReno: AIMD with increase 1 segment per RTT and
// multiplicative decrease 0.5 (B = 1/2 in the paper's taxonomy, W ≈ 1.22/√p).
type Reno struct{}

// Name implements CongestionControl.
func (Reno) Name() string { return "reno" }

// Init implements CongestionControl.
func (Reno) Init(s *State) {}

// OnAck implements CongestionControl.
func (Reno) OnAck(s *State, acked int, _ bool, _ time.Duration) { renoIncrease(s, acked) }

// OnCongestionEvent implements CongestionControl.
func (Reno) OnCongestionEvent(s *State, _ time.Duration) {
	s.Ssthresh = s.Cwnd / 2
	if s.Ssthresh < s.MinCwnd {
		s.Ssthresh = s.MinCwnd
	}
	s.Cwnd = s.Ssthresh
}

// OnRTO implements CongestionControl.
func (Reno) OnRTO(s *State, _ time.Duration) {
	s.Ssthresh = s.Cwnd / 2
	if s.Ssthresh < s.MinCwnd {
		s.Ssthresh = s.MinCwnd
	}
	s.Cwnd = 1
}
