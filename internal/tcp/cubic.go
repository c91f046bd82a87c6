package tcp

import (
	"math"
	"time"
)

// Cubic implements TCP Cubic per RFC 8312, including fast convergence and
// the TCP-friendly (Reno-equivalent) region. In the friendly region the
// effective multiplicative decrease factor is β=0.7, which is the paper's
// "CReno" mode with W ≈ 1.68/√p (equation (7)); in the pure cubic region
// B = 3/4 (equation (6)).
type Cubic struct {
	// C is the cubic scaling constant (0.4 by default).
	C float64
	// Beta is the multiplicative decrease factor (0.7 by default).
	Beta float64
	// DisableFriendly turns off the TCP-friendly region, forcing pure
	// cubic growth (for the Appendix A switch-over tests).
	DisableFriendly bool
	// DisableHyStart turns off the HyStart delay-increase heuristic.
	// Linux Cubic ships with HyStart on: slow start ends as soon as the
	// RTT rises measurably above the path minimum, avoiding the massive
	// overshoot of classical slow start into a deep buffer.
	DisableHyStart bool

	wMax       float64       // window before the last reduction
	wLastMax   float64       // for fast convergence
	k          float64       // time to regrow to wMax, seconds
	epochStart time.Duration // start of the current growth epoch
	ackCount   float64       // ACKs accumulated for the friendly estimate
	wEst       float64       // Reno-friendly window estimate
	hasEpoch   bool
}

// Name implements CongestionControl.
func (c *Cubic) Name() string { return "cubic" }

// UseHyStart reports whether the endpoint should apply the HyStart
// slow-start exit (see Endpoint.sampleRTT).
func (c *Cubic) UseHyStart() bool { return !c.DisableHyStart }

// Init implements CongestionControl.
func (c *Cubic) Init(s *State) {
	if c.C == 0 {
		c.C = 0.4
	}
	if c.Beta == 0 {
		c.Beta = 0.7
	}
	c.hasEpoch = false
	c.wMax = 0
	c.wLastMax = 0
}

// OnAck implements CongestionControl.
func (c *Cubic) OnAck(s *State, acked int, _ bool, now time.Duration) {
	if float64(acked) > s.Cwnd {
		acked = int(s.Cwnd) // see renoIncrease: cap spurious mega-ACKs
	}
	if s.InSlowStart() {
		inc := float64(acked)
		if inc > s.Cwnd {
			inc = s.Cwnd // at most doubling per RTT, like renoIncrease
		}
		s.Cwnd += inc
		return
	}
	if !c.hasEpoch {
		c.beginEpoch(s, now)
	}
	rtt := s.SRTT
	if rtt <= 0 {
		rtt = 100 * time.Millisecond
	}
	// Cubic growth toward (and past) wMax. The target depends only on the
	// epoch and the RTT, so one value serves every segment of the ACK; d³
	// as d*d*d is bit-identical to math.Pow(d, 3) without Pow's general path.
	d := (now - c.epochStart).Seconds() + rtt.Seconds() - c.k
	target := c.wMax + c.C*(d*d*d)
	// The Reno-friendly increase factor (RFC 8312 §4.2), once per ACK.
	friendly := 3 * (1 - c.Beta) / (1 + c.Beta)
	for i := 0; i < acked; i++ {
		c.ackCount++
		c.wEst += friendly / s.Cwnd
		w := target
		if !c.DisableFriendly && c.wEst > w {
			w = c.wEst // CReno region
		}
		if w > s.Cwnd {
			s.Cwnd += (w - s.Cwnd) / s.Cwnd
		} else {
			s.Cwnd += 0.01 / s.Cwnd // minimal growth, per RFC 8312 §4.3
		}
	}
}

func (c *Cubic) beginEpoch(s *State, now time.Duration) {
	c.epochStart = now
	c.hasEpoch = true
	if c.wMax < s.Cwnd {
		c.wMax = s.Cwnd
	}
	c.k = math.Cbrt((c.wMax - s.Cwnd) / c.C)
	c.wEst = s.Cwnd
	c.ackCount = 0
}

// OnCongestionEvent implements CongestionControl.
func (c *Cubic) OnCongestionEvent(s *State, now time.Duration) {
	// Fast convergence: release bandwidth faster when the window is
	// still below the previous maximum.
	if s.Cwnd < c.wLastMax {
		c.wLastMax = s.Cwnd
		c.wMax = s.Cwnd * (1 + c.Beta) / 2
	} else {
		c.wLastMax = s.Cwnd
		c.wMax = s.Cwnd
	}
	s.Cwnd *= c.Beta
	s.clampCwnd()
	s.Ssthresh = s.Cwnd
	c.hasEpoch = false
	c.beginEpoch(s, now)
}

// OnRTO implements CongestionControl.
func (c *Cubic) OnRTO(s *State, now time.Duration) {
	c.wLastMax = s.Cwnd
	c.wMax = s.Cwnd
	s.Ssthresh = s.Cwnd * c.Beta
	if s.Ssthresh < s.MinCwnd {
		s.Ssthresh = s.MinCwnd
	}
	s.Cwnd = 1
	c.hasEpoch = false
}
