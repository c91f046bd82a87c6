package tcp

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func newState(cwnd, ssthresh float64) *State {
	return &State{Cwnd: cwnd, Ssthresh: ssthresh, MinCwnd: 2}
}

func TestRenoSlowStartDoubling(t *testing.T) {
	s := newState(10, 1e9)
	Reno{}.OnAck(s, 10, false, 0)
	if s.Cwnd != 20 {
		t.Errorf("cwnd = %v, want 20 (doubling per RTT)", s.Cwnd)
	}
}

func TestRenoSlowStartCapPerAck(t *testing.T) {
	// ABC: a single huge cumulative ACK cannot more than double cwnd.
	s := newState(10, 1e9)
	Reno{}.OnAck(s, 5000, false, 0)
	if s.Cwnd != 20 {
		t.Errorf("cwnd = %v after mega-ACK, want 20", s.Cwnd)
	}
}

func TestRenoSlowStartExitsAtSsthresh(t *testing.T) {
	s := newState(10, 12)
	Reno{}.OnAck(s, 10, false, 0)
	// 2 segments finish slow start (to 12), remaining 8 ACKs add
	// 8/12 in congestion avoidance.
	want := 12 + 8.0/12
	if math.Abs(s.Cwnd-want) > 1e-9 {
		t.Errorf("cwnd = %v, want %v", s.Cwnd, want)
	}
}

// renoIncreaseRef is renoIncrease as first written, with the per-ACK cap
// as a lone assignment and the slow-start increase capped a second time.
func renoIncreaseRef(s *State, acked int) {
	if float64(acked) > s.Cwnd {
		acked = int(s.Cwnd)
	}
	if s.InSlowStart() {
		inc := float64(acked)
		if inc > s.Cwnd {
			inc = s.Cwnd
		}
		if s.Cwnd+inc > s.Ssthresh {
			inc = s.Ssthresh - s.Cwnd
		}
		s.Cwnd += inc
		acked -= int(inc)
		if acked <= 0 {
			return
		}
	}
	s.Cwnd += float64(acked) / s.Cwnd
}

// TestRenoIncreaseMatchesReference: the restructured increase is
// bit-identical to the original over windows from a fraction of a segment
// up, ACKs of zero to several windows, and thresholds on either side.
func TestRenoIncreaseMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20000; i++ {
		cwnd := []float64{0.5, 1, 2.75, 7.999, 8, 31.4}[i%6] + rng.Float64()*float64(i%40)
		ssthresh := cwnd * (0.25 + 2*rng.Float64())
		acked := rng.Intn(int(3*cwnd) + 2)
		got, want := State{Cwnd: cwnd, Ssthresh: ssthresh}, State{Cwnd: cwnd, Ssthresh: ssthresh}
		renoIncrease(&got, acked)
		renoIncreaseRef(&want, acked)
		if got != want {
			t.Fatalf("cwnd %v ssthresh %v acked %d: %+v, reference %+v", cwnd, ssthresh, acked, got, want)
		}
	}
}

func TestRenoCongestionAvoidanceLinear(t *testing.T) {
	s := newState(10, 5) // past ssthresh
	for i := 0; i < 10; i++ {
		Reno{}.OnAck(s, 1, false, 0)
	}
	// Ten ACKs with cwnd ~10 add roughly one segment.
	if s.Cwnd < 10.9 || s.Cwnd > 11.1 {
		t.Errorf("cwnd = %v, want ~11 after one RTT", s.Cwnd)
	}
}

func TestRenoHalvesOnCongestion(t *testing.T) {
	s := newState(40, 1e9)
	Reno{}.OnCongestionEvent(s, 0)
	if s.Cwnd != 20 || s.Ssthresh != 20 {
		t.Errorf("cwnd=%v ssthresh=%v, want 20/20", s.Cwnd, s.Ssthresh)
	}
}

func TestRenoMinCwndFloor(t *testing.T) {
	s := newState(3, 1e9)
	Reno{}.OnCongestionEvent(s, 0)
	if s.Cwnd != 2 {
		t.Errorf("cwnd = %v, want floored at MinCwnd 2", s.Cwnd)
	}
}

func TestRenoRTO(t *testing.T) {
	s := newState(40, 1e9)
	Reno{}.OnRTO(s, 0)
	if s.Cwnd != 1 || s.Ssthresh != 20 {
		t.Errorf("cwnd=%v ssthresh=%v, want 1/20", s.Cwnd, s.Ssthresh)
	}
}

func TestCubicDecreaseFactor(t *testing.T) {
	c := &Cubic{}
	s := newState(100, 50)
	c.Init(s)
	c.OnCongestionEvent(s, 0)
	if math.Abs(s.Cwnd-70) > 1e-9 {
		t.Errorf("cwnd = %v, want 70 (beta = 0.7)", s.Cwnd)
	}
	if s.Ssthresh != s.Cwnd {
		t.Error("ssthresh must equal cwnd after reduction")
	}
}

func TestCubicFastConvergence(t *testing.T) {
	c := &Cubic{}
	s := newState(100, 50)
	c.Init(s)
	c.OnCongestionEvent(s, 0) // wLastMax = 100
	s.Cwnd = 80               // reduced again before regaining 100
	c.OnCongestionEvent(s, time.Second)
	// Fast convergence: wMax set below the current window's natural max.
	if c.wMax >= 80 {
		t.Errorf("wMax = %v, want < 80 under fast convergence", c.wMax)
	}
}

func TestCubicConcaveGrowthTowardWMax(t *testing.T) {
	// Disable the Reno-friendly region: at 10 ms RTT its linear growth
	// legitimately outpaces the concave cubic curve, which is not what
	// this test measures.
	c := &Cubic{DisableFriendly: true}
	s := newState(100, 50)
	c.Init(s)
	c.OnCongestionEvent(s, 0) // cwnd 70, wMax 100, K = cbrt(30/0.4) ~ 4.2 s
	s.SRTT = 10 * time.Millisecond

	// Simulate 3 virtual seconds of ACK clocking at ~cwnd ACKs per RTT.
	now := time.Duration(0)
	var prev float64
	growthShrinking := true
	lastGrowth := math.Inf(1)
	for i := 0; i < 300; i++ {
		now += 10 * time.Millisecond
		prev = s.Cwnd
		c.OnAck(s, int(s.Cwnd), false, now)
		g := s.Cwnd - prev
		if g > lastGrowth+0.5 {
			growthShrinking = false
		}
		lastGrowth = g
	}
	if !growthShrinking {
		t.Error("growth rate increased while approaching wMax (should be concave)")
	}
	if s.Cwnd < 85 || s.Cwnd > 115 {
		t.Errorf("cwnd = %v after 3 s, want approaching wMax 100", s.Cwnd)
	}
}

func TestCubicDefaultsApplied(t *testing.T) {
	c := &Cubic{}
	s := newState(10, 1e9)
	c.Init(s)
	if c.C != 0.4 || c.Beta != 0.7 {
		t.Errorf("defaults C=%v Beta=%v", c.C, c.Beta)
	}
}

func TestDCTCPReductionProportionalToAlpha(t *testing.T) {
	d := &DCTCP{}
	s := newState(100, 50)
	d.Init(s)
	var una, nxt int64 = 0, 10
	d.bindSeq(&una, &nxt)

	// First window: all ACKs marked. With initial alpha = 1 the window
	// should eventually halve on the window boundary.
	d.OnAck(s, 1, true, 0) // opens the observation window (end = 10)
	una = 10               // pass the boundary
	nxt = 20
	cwndBefore := s.Cwnd
	d.OnAck(s, 1, true, 0)
	if s.Cwnd >= cwndBefore {
		t.Errorf("no reduction at window boundary with marks: %v -> %v", cwndBefore, s.Cwnd)
	}
	// Reduction ≈ alpha/2 = 50 % (alpha still near 1).
	if s.Cwnd < cwndBefore*0.4 || s.Cwnd > cwndBefore*0.7 {
		t.Errorf("reduction factor off: %v -> %v", cwndBefore, s.Cwnd)
	}
}

func TestDCTCPNoMarksNoReduction(t *testing.T) {
	d := &DCTCP{}
	s := newState(100, 50)
	d.Init(s)
	var una, nxt int64 = 0, 10
	d.bindSeq(&una, &nxt)
	d.OnAck(s, 1, false, 0)
	una, nxt = 10, 20
	before := s.Cwnd
	d.OnAck(s, 1, false, 0)
	if s.Cwnd < before {
		t.Errorf("reduced without marks: %v -> %v", before, s.Cwnd)
	}
	// Alpha decays toward zero without marks.
	if d.Alpha() >= 1 {
		t.Errorf("alpha = %v, should decay", d.Alpha())
	}
}

func TestDCTCPAlphaEWMAGain(t *testing.T) {
	d := &DCTCP{}
	s := newState(100, 50)
	d.Init(s)
	var una, nxt int64 = 0, 10
	d.bindSeq(&una, &nxt)
	// One unmarked window: alpha ← (1−1/16)·1 = 0.9375.
	d.OnAck(s, 1, false, 0)
	una, nxt = 10, 20
	d.OnAck(s, 1, false, 0)
	if math.Abs(d.Alpha()-0.9375) > 1e-9 {
		t.Errorf("alpha = %v, want 0.9375 after one clean window", d.Alpha())
	}
}

func TestDCTCPLossFallsBackToReno(t *testing.T) {
	d := &DCTCP{}
	s := newState(100, 50)
	d.Init(s)
	d.OnCongestionEvent(s, 0)
	if s.Cwnd != 50 {
		t.Errorf("cwnd = %v after loss, want Reno halving", s.Cwnd)
	}
}

func TestScalableHalfSegmentPerMark(t *testing.T) {
	s := newState(50, 10) // out of slow start
	Scalable{}.OnAck(s, 1, true, 0)
	if math.Abs(s.Cwnd-49.5) > 1e-9 {
		t.Errorf("cwnd = %v, want 49.5 (-0.5 per mark)", s.Cwnd)
	}
	Scalable{}.OnAck(s, 1, false, 0)
	if s.Cwnd <= 49.5 {
		t.Error("no growth on clean ACK")
	}
}

func TestScalableMarkExitsSlowStart(t *testing.T) {
	s := newState(50, 1e9) // in slow start
	Scalable{}.OnAck(s, 1, true, 0)
	if s.InSlowStart() {
		t.Error("still in slow start after a mark")
	}
}

func TestCCNames(t *testing.T) {
	if (Reno{}).Name() != "reno" || (&Cubic{}).Name() != "cubic" ||
		(&DCTCP{}).Name() != "dctcp" || (Scalable{}).Name() != "scalable" {
		t.Error("names")
	}
}

func TestStateInSlowStart(t *testing.T) {
	s := newState(10, 20)
	if !s.InSlowStart() {
		t.Error("cwnd < ssthresh should be slow start")
	}
	s.Cwnd = 20
	if s.InSlowStart() {
		t.Error("cwnd == ssthresh should be congestion avoidance")
	}
}
