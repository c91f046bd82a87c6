package tcp

import (
	"math"
	"testing"
	"time"
)

// alphaEWMA is the congestion-control side of DCTCP/Prague observation
// windows that the closed-form tests exercise.
type alphaEWMA interface {
	CongestionControl
	Alpha() float64
}

// driveWindows pushes `windows` observation windows of `segs` segments each
// through cc, CE-marking the first `marked` ACKs of every window.
//
// sndNxt is advanced one window ahead of the ACK stream, exactly as a live
// endpoint keeps a window of data in flight. The control's lazy windowEnd
// init therefore spans the first TWO driven windows (both with the same mark
// fraction, so the EWMA input is unchanged), and every later driven window
// closes one observation window: `windows` driven windows produce exactly
// windows−1 α updates, each with f = marked/segs.
func driveWindows(cc alphaEWMA, s *State, windows, segs, marked int) {
	var una, nxt int64
	BindSeq(cc, &una, &nxt)
	nxt = int64(segs)
	for w := 0; w < windows; w++ {
		nxt += int64(segs)
		for i := 0; i < segs; i++ {
			una++
			cc.OnAck(s, 1, i < marked, time.Duration(w*segs+i)*time.Millisecond)
		}
	}
}

// closedFormAlpha is α after k EWMA updates with constant input F:
// α_k = F + (1−g)^k (α₀ − F), the geometric relaxation toward the fixed
// point F.
func closedFormAlpha(alpha0, g, f float64, k int) float64 {
	return f + math.Pow(1-g, float64(k))*(alpha0-f)
}

// TestPragueAlphaClosedForm drives a fixed CE-mark pattern and checks the
// EWMA against the analytic solution, per gain and marking fraction.
func TestPragueAlphaClosedForm(t *testing.T) {
	const segs, windows = 8, 9 // 9 driven windows → 8 α updates
	for _, g := range []float64{1.0 / 16, 1.0 / 8} {
		for _, marked := range []int{0, 2, 4, 8} {
			p := &Prague{}
			p.G = g
			s := newState(1000, 500)
			p.Init(s)
			driveWindows(p, s, windows, segs, marked)
			f := float64(marked) / segs
			want := closedFormAlpha(1, g, f, windows-1)
			if got := p.Alpha(); math.Abs(got-want) > 1e-9 {
				t.Errorf("g=%v F=%v: alpha = %.12f, want %.12f", g, f, got, want)
			}
		}
	}
}

// TestDCTCPAlphaClosedForm: identical machinery contract for DCTCP — the
// two controls must share the observation-window/EWMA semantics exactly.
func TestDCTCPAlphaClosedForm(t *testing.T) {
	const segs, windows = 8, 9
	for _, g := range []float64{1.0 / 16, 1.0 / 8} {
		for _, marked := range []int{0, 2, 4, 8} {
			d := &DCTCP{}
			d.G = g
			s := newState(1000, 500)
			d.Init(s)
			driveWindows(d, s, windows, segs, marked)
			f := float64(marked) / segs
			want := closedFormAlpha(1, g, f, windows-1)
			if got := d.Alpha(); math.Abs(got-want) > 1e-9 {
				t.Errorf("g=%v F=%v: alpha = %.12f, want %.12f", g, f, got, want)
			}
		}
	}
}

// TestPragueAlphaFixedPoint: with a constant marking fraction the EWMA must
// converge to it — 200 updates at g=1/16 leave (15/16)^200 ≈ 2.5e-6 of the
// initial offset.
func TestPragueAlphaFixedPoint(t *testing.T) {
	p := &Prague{}
	s := newState(1000, 500)
	p.Init(s)
	driveWindows(p, s, 201, 8, 2)
	if got := p.Alpha(); math.Abs(got-0.25) > 1e-5 {
		t.Errorf("alpha = %v, want fixed point 0.25", got)
	}
}

// TestPragueMarkedWindowCut checks the exact arithmetic of one marked
// observation-window close: EWMA update first, then cwnd ← cwnd·(1−α/2)
// with ssthresh pinned to the new window, then the additive increase.
func TestPragueMarkedWindowCut(t *testing.T) {
	p := &Prague{}
	p.InitialAlpha = 0.5
	s := newState(20, 10)
	p.Init(s)
	// una already at windowEnd: the very first ACK closes the window.
	var una, nxt int64 = 5, 5
	if !BindSeq(p, &una, &nxt) {
		t.Fatal("Prague must accept sequence binding")
	}
	p.OnAck(s, 1, true, 0)

	alpha1 := (1-1.0/16)*0.5 + 1.0/16 // f = 1
	if math.Abs(p.Alpha()-alpha1) > 1e-12 {
		t.Errorf("alpha = %v, want %v", p.Alpha(), alpha1)
	}
	cut := 20 * (1 - alpha1/2)
	want := cut + 1/cut // SRTT 0 → aiFactor 1; one ACK of CA growth
	if math.Abs(s.Cwnd-want) > 1e-12 {
		t.Errorf("cwnd = %v, want %v", s.Cwnd, want)
	}
	if s.Ssthresh != cut {
		t.Errorf("ssthresh = %v, want %v (pinned at the reduced window)", s.Ssthresh, cut)
	}
}

// TestPragueAiFactor: the RTT-independence damping must be
// (SRTT/VirtualRTT)^1.75 below the virtual RTT and exactly 1 at or above
// it (and always 1 when disabled or before any RTT sample).
func TestPragueAiFactor(t *testing.T) {
	cases := []struct {
		srtt     time.Duration
		disabled bool
		want     float64
	}{
		{0, false, 1}, // no sample yet
		{5 * time.Millisecond, false, math.Pow(0.2, 1.75)},
		{12500 * time.Microsecond, false, math.Pow(0.5, 1.75)},
		{25 * time.Millisecond, false, 1},
		{100 * time.Millisecond, false, 1},
		{5 * time.Millisecond, true, 1},
	}
	for _, c := range cases {
		p := &Prague{DisableRTTIndependence: c.disabled}
		s := newState(10, 5)
		p.Init(s)
		s.SRTT = c.srtt
		if got := p.aiFactor(s); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("aiFactor(srtt=%v, disabled=%v) = %v, want %v", c.srtt, c.disabled, got, c.want)
		}
	}
}

// TestPragueRTTIndependentGrowth: over unmarked windows a short-RTT flow
// must gain aiFactor segments per window instead of Reno's one.
func TestPragueRTTIndependentGrowth(t *testing.T) {
	const windows, segs = 7, 20
	p := &Prague{}
	s := newState(20, 10)
	p.Init(s)
	s.SRTT = 5 * time.Millisecond
	c0 := s.Cwnd
	driveWindows(p, s, windows, segs, 0)
	growth := s.Cwnd - c0
	// Each of the `windows` driven windows delivers segs≈cwnd ACKs, each
	// adding aiFactor/cwnd: ≈ aiFactor segments per window.
	want := float64(windows) * math.Pow(0.2, 1.75)
	if math.Abs(growth-want) > 0.05*want {
		t.Errorf("growth = %v over %d windows, want ≈ %v (aiFactor per window)", growth, windows, want)
	}
}

// TestPragueFractionalWindow: under saturation marking a short-RTT Prague
// flow must keep responding below one segment, never dropping under the
// PragueMinCwnd floor and never going non-finite.
func TestPragueFractionalWindow(t *testing.T) {
	p := &Prague{}
	s := newState(4, 2)
	p.Init(s)
	s.SRTT = 5 * time.Millisecond
	// una pinned at windowEnd: every marked ACK closes a marked window.
	var una, nxt int64 = 1 << 30, 1 << 30
	BindSeq(p, &una, &nxt)
	sawFractional := false
	for i := 0; i < 100; i++ {
		p.OnAck(s, 1, true, time.Duration(i)*time.Millisecond)
		if !(s.Cwnd >= PragueMinCwnd) || math.IsInf(s.Cwnd, 0) {
			t.Fatalf("cwnd = %v at step %d, must stay in [%v, ∞)", s.Cwnd, i, PragueMinCwnd)
		}
		if s.Cwnd < 1 {
			sawFractional = true
		}
	}
	if !sawFractional {
		t.Errorf("cwnd never went sub-packet under saturation marking (final %v)", s.Cwnd)
	}
}

// TestPragueSubUnityGrowthFloor: growth of a sub-packet window divides by a
// floor of one segment — one clean ACK at cwnd 0.5 adds exactly 1 segment
// (at aiFactor 1), not 1/0.5 = 2.
func TestPragueSubUnityGrowthFloor(t *testing.T) {
	p := &Prague{}
	s := newState(0.5, 0.25)
	p.Init(s)
	var una, nxt int64 = 0, 100 // window far from closing
	BindSeq(p, &una, &nxt)
	p.OnAck(s, 1, false, 0)
	if math.Abs(s.Cwnd-1.5) > 1e-12 {
		t.Errorf("cwnd = %v, want exactly 1.5", s.Cwnd)
	}
}

// TestPragueInitDefaults: Init must install the draft's constants and lower
// the endpoint's classic MinCwnd to the fractional floor.
func TestPragueInitDefaults(t *testing.T) {
	p := &Prague{}
	s := newState(10, 1e9) // newState sets the classic MinCwnd = 2
	p.Init(s)
	if p.G != 1.0/16 || p.VirtualRTT != 25*time.Millisecond || p.Alpha() != 1 {
		t.Errorf("defaults: G=%v VirtualRTT=%v alpha=%v", p.G, p.VirtualRTT, p.Alpha())
	}
	if s.MinCwnd != PragueMinCwnd {
		t.Errorf("MinCwnd = %v, want %v", s.MinCwnd, PragueMinCwnd)
	}
	if p.Name() != "prague" {
		t.Errorf("name = %q", p.Name())
	}
}

// TestPragueLossFallsBackToReno: classic congestion signals bypass the
// scalable response entirely — a loss halves like Reno.
func TestPragueLossFallsBackToReno(t *testing.T) {
	p := &Prague{}
	s := newState(40, 1e9)
	p.Init(s)
	p.OnCongestionEvent(s, 0)
	if s.Cwnd != 20 || s.Ssthresh != 20 {
		t.Errorf("cwnd=%v ssthresh=%v after loss, want 20/20 (Reno halving)", s.Cwnd, s.Ssthresh)
	}
}

// TestPragueRTOResetsObservationWindow: an RTO collapses the window like
// Reno and discards the in-progress observation window (the sequence space
// is about to be rewound under it).
func TestPragueRTOResetsObservationWindow(t *testing.T) {
	p := &Prague{}
	s := newState(40, 1e9)
	p.Init(s)
	var una, nxt int64 = 0, 100
	BindSeq(p, &una, &nxt)
	p.OnAck(s, 1, true, 0) // open a window with a pending mark
	p.OnRTO(s, 0)
	if s.Cwnd != 1 {
		t.Errorf("cwnd = %v after RTO, want 1", s.Cwnd)
	}
	if p.windowEnd != -1 || p.ackedSegs != 0 || p.markedSegs != 0 {
		t.Errorf("observation window not reset: end=%d acked=%d marked=%d",
			p.windowEnd, p.ackedSegs, p.markedSegs)
	}
}

// TestBindSeqOnlyForWindowedControls: BindSeq reports which controls track
// sequence-space observation windows.
func TestBindSeqOnlyForWindowedControls(t *testing.T) {
	var una, nxt int64
	if !BindSeq(&Prague{}, &una, &nxt) || !BindSeq(&DCTCP{}, &una, &nxt) {
		t.Error("Prague and DCTCP must accept sequence binding")
	}
	if BindSeq(Reno{}, &una, &nxt) || BindSeq(&Cubic{}, &una, &nxt) {
		t.Error("Reno/Cubic must not claim sequence binding")
	}
}
