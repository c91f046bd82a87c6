package tcp

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// cubicOnAckPow is Cubic.OnAck as it stood with math.Pow evaluated per
// segment inside the loop, kept verbatim as the reference for the hoisted
// d*d*d target.
func cubicOnAckPow(c *Cubic, s *State, acked int, now time.Duration) {
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
	t := (now - c.epochStart).Seconds()
	for i := 0; i < acked; i++ {
		// Cubic growth toward (and past) wMax.
		target := c.wMax + c.C*math.Pow(t+rtt.Seconds()-c.k, 3)
		// Reno-friendly estimate (RFC 8312 §4.2).
		c.ackCount++
		c.wEst += 3 * (1 - c.Beta) / (1 + c.Beta) / s.Cwnd
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

// TestCubicOnAckMatchesPowLoop drives the hoisted OnAck and the per-segment
// math.Pow reference from the same random states (epochs before and after
// K, so the cubic term takes both signs; friendly region on and off; ACK
// chunks from one segment to fast-forward's quarter windows) and requires
// bit-identical windows and estimates after every ACK.
func TestCubicOnAckMatchesPowLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		cwnd := 2 + rng.Float64()*2000
		got := &Cubic{C: 0.1 + rng.Float64(), Beta: 0.5 + rng.Float64()*0.4, DisableFriendly: rng.Intn(4) == 0}
		gs := &State{Cwnd: cwnd, Ssthresh: 1, MinCwnd: 2}
		if rng.Intn(8) > 0 {
			gs.SRTT = time.Duration(rng.Int63n(int64(500 * time.Millisecond)))
		}
		got.Init(gs)
		now := time.Duration(rng.Int63n(int64(100 * time.Second)))
		if rng.Intn(2) == 0 {
			got.OnCongestionEvent(gs, now)
		}
		want, ws := *got, *gs
		for ack := 0; ack < 20; ack++ {
			now += time.Duration(rng.Int63n(int64(2 * time.Second)))
			acked := 1 + rng.Intn(4)
			if rng.Intn(2) == 0 {
				acked = 1 + rng.Intn(int(gs.Cwnd)/4+1)
			}
			got.OnAck(gs, acked, false, now)
			cubicOnAckPow(&want, &ws, acked, now)
			if math.Float64bits(gs.Cwnd) != math.Float64bits(ws.Cwnd) ||
				math.Float64bits(got.wEst) != math.Float64bits(want.wEst) || *got != want {
				t.Fatalf("trial %d ack %d (acked %d): cwnd %v wEst %v, reference cwnd %v wEst %v",
					trial, ack, acked, gs.Cwnd, got.wEst, ws.Cwnd, want.wEst)
			}
		}
	}
}

// TestCubeIsPow3 pins the identity the hoist relies on over magnitudes far
// beyond any epoch offset, negatives and signed zeros included.
func TestCubeIsPow3(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	xs := []float64{0, math.Copysign(0, -1), 1, -1, math.Inf(1), math.Inf(-1)}
	for i := 0; i < 1_000_000; i++ {
		xs = append(xs, math.Ldexp(rng.Float64()-0.5, rng.Intn(200)-100))
	}
	for _, x := range xs {
		if p, c := math.Pow(x, 3), x*x*x; math.Float64bits(p) != math.Float64bits(c) {
			t.Fatalf("Pow(%v, 3) = %v, x*x*x = %v", x, p, c)
		}
	}
}
