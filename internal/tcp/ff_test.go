package tcp

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"pi2/internal/packet"
	"pi2/internal/sim"
)

func ffTestEndpoint(t *testing.T, cc CongestionControl, mode ECNMode) *Endpoint {
	t.Helper()
	s := sim.New(1)
	e := NewWithEnqueuer(s, func(p *packet.Packet) { s.PacketPool().Release(p) }, Config{
		ID:      1,
		CC:      cc,
		ECN:     mode,
		BaseRTT: 10 * time.Millisecond,
	})
	// Place the flow in steady congestion avoidance.
	e.started = true
	e.state.Cwnd = 10
	e.state.Ssthresh = 5
	e.state.SRTT = 12 * time.Millisecond
	e.state.RTTVar = time.Millisecond
	e.state.MinRTT = 10 * time.Millisecond
	return e
}

// TestFFAdvanceRenoMatchesClosedForm: continuous Reno CA obeys dW/dn = 1/W,
// so W(n) = sqrt(W0² + 2n). The chunked FFAdvance must track both that
// closed form and the per-ACK packet-mode iteration to sub-percent error.
func TestFFAdvanceRenoMatchesClosedForm(t *testing.T) {
	const n = 500
	e := ffTestEndpoint(t, Reno{}, ECNOff)
	w0 := e.state.Cwnd
	e.FFAdvance(n, 0, 10*time.Millisecond, 0)

	closed := math.Sqrt(w0*w0 + 2*n)
	if rel := math.Abs(e.state.Cwnd-closed) / closed; rel > 0.01 {
		t.Fatalf("cwnd %.4f vs closed form %.4f (rel %.4f)", e.state.Cwnd, closed, rel)
	}

	ref := State{Cwnd: w0, Ssthresh: 5, MinCwnd: 2}
	for i := 0; i < n; i++ {
		Reno{}.OnAck(&ref, 1, false, 0)
	}
	if rel := math.Abs(e.state.Cwnd-ref.Cwnd) / ref.Cwnd; rel > 0.01 {
		t.Fatalf("cwnd %.4f vs per-ack %.4f (rel %.4f)", e.state.Cwnd, ref.Cwnd, rel)
	}
}

// TestFFAdvanceCubicMatchesPerAck: the chunked advance through Cubic's real
// OnAck must track a per-ACK reference driven at the same virtual times,
// including the concave approach to wMax and the friendly region.
func TestFFAdvanceCubicMatchesPerAck(t *testing.T) {
	mk := func() (*Endpoint, *Cubic) {
		cc := &Cubic{}
		e := ffTestEndpoint(t, cc, ECNOff)
		// A realistic post-reduction epoch: wMax above the current window.
		cc.Init(&e.state)
		e.state.Cwnd = 10
		e.state.Ssthresh = 5
		cc.wMax = 14
		cc.wLastMax = 14
		cc.k = math.Cbrt((cc.wMax - e.state.Cwnd) / cc.C)
		cc.epochStart = 0
		cc.wEst = e.state.Cwnd
		cc.hasEpoch = true
		return e, cc
	}
	rtt := 10 * time.Millisecond

	eFF, _ := mk()
	const n = 400
	eFF.FFAdvance(n, 0, rtt, 0)

	eRef, ccRef := mk()
	now := time.Duration(0)
	acksInWin := 0
	for i := 0; i < n; i++ {
		ccRef.OnAck(&eRef.state, 1, false, now)
		acksInWin++
		if float64(acksInWin) >= eRef.state.Cwnd {
			now += rtt
			acksInWin = 0
		}
	}
	if rel := math.Abs(eFF.state.Cwnd-eRef.state.Cwnd) / eRef.state.Cwnd; rel > 0.02 {
		t.Fatalf("cwnd %.4f vs per-ack %.4f (rel %.4f)", eFF.state.Cwnd, eRef.state.Cwnd, rel)
	}
	if eFF.state.Cwnd <= 10 {
		t.Fatalf("no growth: %.4f", eFF.state.Cwnd)
	}
}

// TestFFAdvanceDCTCPAlphaRelaxation: under a constant mark probability p the
// DCTCP EWMA must relax toward α = p and the window must oscillate around
// the equation (11) equilibrium; the FF trajectory is compared against a
// faithful per-ACK packet-mode emulation with bound sequence counters.
func TestFFAdvanceDCTCPAlphaRelaxation(t *testing.T) {
	const p = 0.10
	rtt := 10 * time.Millisecond

	// FF trajectory.
	ccFF := &DCTCP{}
	eFF := ffTestEndpoint(t, ccFF, ECNScalable)
	ccFF.Init(&eFF.state)
	eFF.state.Cwnd = 20
	eFF.state.Ssthresh = 10
	ccFF.alpha = 0.5

	// Per-ACK reference with real sequence-space windows.
	ccRef := &DCTCP{}
	sRef := State{Cwnd: 20, Ssthresh: 10, MinCwnd: 2}
	ccRef.Init(&sRef)
	ccRef.alpha = 0.5
	var una, nxt int64
	ccRef.bindSeq(&una, &nxt)
	nxt = int64(sRef.Cwnd)

	// Deterministic mark pattern: every 10th segment CE.
	const total = 4000
	markedOf := func(i int) bool { return i%10 == 9 }

	ffMarked, ffAcked := 0, 0
	for i := 0; i < total; i++ {
		if markedOf(i) {
			ffMarked++
		}
		ffAcked++
		// Feed FF one virtual RTT at a time (about one window of ACKs).
		if ffAcked >= int(eFF.state.Cwnd) {
			eFF.FFAdvance(ffAcked, ffMarked, rtt, 0)
			ffAcked, ffMarked = 0, 0
		}
	}
	if ffAcked > 0 {
		eFF.FFAdvance(ffAcked, ffMarked, rtt, 0)
	}

	for i := 0; i < total; i++ {
		una++
		if nxt < una+int64(sRef.Cwnd) {
			nxt = una + int64(sRef.Cwnd)
		}
		ccRef.OnAck(&sRef, 1, markedOf(i), 0)
	}

	if math.Abs(ccFF.alpha-p) > 0.05 {
		t.Fatalf("alpha %.4f did not relax toward %.2f", ccFF.alpha, p)
	}
	if math.Abs(ccRef.alpha-p) > 0.05 {
		t.Fatalf("reference alpha %.4f did not relax toward %.2f", ccRef.alpha, p)
	}
	// Both trajectories must orbit the same equilibrium: compare windows
	// within the oscillation amplitude (~α/2 relative).
	if rel := math.Abs(eFF.state.Cwnd-sRef.Cwnd) / sRef.Cwnd; rel > 0.15 {
		t.Fatalf("cwnd %.4f vs reference %.4f (rel %.4f)", eFF.state.Cwnd, sRef.Cwnd, rel)
	}
}

// TestFFAdvanceScalableExact: equation (22) arithmetic is exact — half a
// segment per mark, unmarked ACKs feed renoIncrease in window chunks.
func TestFFAdvanceScalableExact(t *testing.T) {
	e := ffTestEndpoint(t, Scalable{}, ECNScalable)
	e.state.Cwnd = 10
	e.state.Ssthresh = 5

	ref := State{Cwnd: 10, Ssthresh: 5, MinCwnd: 2}
	ref.Cwnd -= 0.5 * 4
	ref.clampCwnd()
	if ref.Ssthresh > ref.Cwnd {
		ref.Ssthresh = ref.Cwnd
	}
	for rem := 16; rem > 0; {
		chunk := int(ref.Cwnd / 4) // mirror ffChunk's quarter-window step
		if chunk < 1 {
			chunk = 1
		}
		if chunk > rem {
			chunk = rem
		}
		renoIncrease(&ref, chunk)
		rem -= chunk
	}

	e.FFAdvance(20, 4, 10*time.Millisecond, 0)
	if e.state.Cwnd != ref.Cwnd {
		t.Fatalf("cwnd %.6f vs %.6f", e.state.Cwnd, ref.Cwnd)
	}
}

// TestFFAdvancePragueRTTIndependence: a short-RTT Prague flow grows slower
// than an equal DCTCP flow by the (SRTT/25ms)^1.75 damping.
func TestFFAdvancePragueRTTIndependence(t *testing.T) {
	grow := func(cc CongestionControl) float64 {
		e := ffTestEndpoint(t, cc, ECNScalable)
		if in, ok := cc.(interface{ Init(*State) }); ok {
			in.Init(&e.state)
		}
		e.state.Cwnd = 20
		e.state.Ssthresh = 10
		e.state.SRTT = 10 * time.Millisecond
		switch c := cc.(type) {
		case *Prague:
			c.alpha = 0
		case *DCTCP:
			c.alpha = 0
		}
		e.FFAdvance(200, 0, 10*time.Millisecond, 0)
		return e.state.Cwnd - 20
	}
	gPrague := grow(&Prague{})
	gDCTCP := grow(&DCTCP{})
	// Continuous CA with damping f obeys dW/dn = f/W, so after n ACKs
	// W = sqrt(W0² + 2·f·n): the two growth deltas have closed forms.
	f := math.Pow(10.0/25.0, 1.75)
	const w0, n = 20.0, 200.0
	wantPrague := math.Sqrt(w0*w0+2*f*n) - w0
	wantDCTCP := math.Sqrt(w0*w0+2*n) - w0
	if math.Abs(gPrague-wantPrague) > 0.05*wantPrague {
		t.Fatalf("prague growth %.4f, closed form %.4f", gPrague, wantPrague)
	}
	if math.Abs(gDCTCP-wantDCTCP) > 0.05*wantDCTCP {
		t.Fatalf("dctcp growth %.4f, closed form %.4f", gDCTCP, wantDCTCP)
	}
}

// TestFFSignal: one reaction per call, absorbed during (frozen) recovery,
// sequence gate re-armed, CWR pended only for classic ECN.
func TestFFSignal(t *testing.T) {
	e := ffTestEndpoint(t, Reno{}, ECNClassic)
	e.sndUna, e.sndNxt = 100, 110
	e.state.Cwnd = 10

	if !e.FFSignal(0) {
		t.Fatal("signal not applied")
	}
	if e.state.Cwnd != 5 {
		t.Fatalf("cwnd %.1f after halving", e.state.Cwnd)
	}
	if e.cwrEnd != 110 || !e.cwrPend {
		t.Fatalf("gate not re-armed: cwrEnd=%d cwrPend=%v", e.cwrEnd, e.cwrPend)
	}
	if e.CongestionEvents() != 1 {
		t.Fatalf("events = %d", e.CongestionEvents())
	}

	e.state.InRecovery = true
	if e.FFSignal(0) {
		t.Fatal("signal applied during frozen recovery")
	}
	if e.state.Cwnd != 5 || e.CongestionEvents() != 1 {
		t.Fatal("recovery flow mutated")
	}

	drop := ffTestEndpoint(t, Reno{}, ECNOff)
	drop.FFSignal(0)
	if drop.cwrPend {
		t.Fatal("CWR pended on a non-ECN flow")
	}
}

func TestFFEligible(t *testing.T) {
	e := ffTestEndpoint(t, Reno{}, ECNOff)
	if !e.FFEligible() {
		t.Fatal("steady CA bulk flow must be eligible")
	}
	e.state.InRecovery = true
	if !e.FFEligible() {
		t.Fatal("frozen recovery must be tolerated")
	}
	e.state.InRecovery = false

	e.state.Ssthresh = 100 // slow start: stepped by the CC's own OnAck rules
	if !e.FFEligible() {
		t.Fatal("slow start must be tolerated")
	}
	e.state.Ssthresh = 5

	e.oooSorted = append(e.oooSorted, 7) // frozen in-flight loss recovery
	if !e.FFEligible() {
		t.Fatal("receiver holes must be tolerated (frozen recovery)")
	}
	e.oooSorted = nil

	e.cfg.FlowSegs = 100
	if e.FFEligible() {
		t.Fatal("finite flows must be ineligible")
	}
	e.cfg.FlowSegs = 0

	e.stopped = true
	if e.FFEligible() {
		t.Fatal("stopped flows must be ineligible")
	}
}

// TestFFShift: send timestamps translate; the flow-duration anchor does
// not.
func TestFFShift(t *testing.T) {
	s := sim.New(1)
	e := NewWithEnqueuer(s, func(p *packet.Packet) { s.PacketPool().Release(p) }, Config{
		ID: 1, CC: Reno{}, BaseRTT: 10 * time.Millisecond,
	})
	e.started = true
	e.startedAt = 0
	e.meta.ackTo(5)
	e.meta.sent(5, 3*time.Millisecond, false)
	e.meta.sent(6, 4*time.Millisecond, true)

	s.RunUntil(5 * time.Millisecond)
	const delta = 2 * time.Second
	s.ShiftPending(delta)
	e.FFShift(delta)

	if m, ok := e.meta.get(5); !ok || m.sentAt != delta+3*time.Millisecond {
		t.Fatalf("meta[5] = %+v, %v", m, ok)
	}
	if m, _ := e.meta.get(6); !m.retx || m.sentAt != delta+4*time.Millisecond {
		t.Fatalf("retx meta mangled: %+v", m)
	}
	if e.startedAt != 0 {
		t.Fatalf("startedAt moved: %v", e.startedAt)
	}
}

// TestFFApplyStats: goodput bytes and the ECN ledgers, accumulated across
// epochs; an epoch that acknowledged nothing patches nothing.
func TestFFApplyStats(t *testing.T) {
	e := ffTestEndpoint(t, Scalable{}, ECNScalable)
	e.FFApplyStats(100, 7)
	if got := e.Goodput.Bytes(); got != int64(100*packet.MSS) {
		t.Fatalf("goodput bytes = %d", got)
	}
	if e.MarksSeen() != 7 || e.CEAcked() != 7 {
		t.Fatalf("ledgers: seen=%d acked=%d", e.MarksSeen(), e.CEAcked())
	}
	e.FFApplyStats(20, 2)
	e.FFApplyStats(0, 5)
	if got := e.Goodput.Bytes(); got != int64(120*packet.MSS) {
		t.Fatalf("goodput bytes after three epochs = %d", got)
	}
	if e.MarksSeen() != 9 || e.CEAcked() != 9 {
		t.Fatalf("ledgers after three epochs: seen=%d acked=%d", e.MarksSeen(), e.CEAcked())
	}

	classic := ffTestEndpoint(t, Reno{}, ECNClassic)
	classic.FFApplyStats(50, 3)
	if got := classic.Goodput.Bytes(); got != int64(50*packet.MSS) {
		t.Fatalf("classic goodput bytes = %d", got)
	}
	if classic.MarksSeen() != 3 || classic.CEAcked() != 0 {
		t.Fatalf("classic ledgers: seen=%d acked=%d", classic.MarksSeen(), classic.CEAcked())
	}

	off := ffTestEndpoint(t, Reno{}, ECNOff)
	off.FFApplyStats(10, 4)
	if off.MarksSeen() != 0 || off.CEAcked() != 0 {
		t.Fatalf("not-ECT ledgers: seen=%d acked=%d", off.MarksSeen(), off.CEAcked())
	}
}

// ffAdvanceRef is FFAdvance as it stood before its dispatch was made
// concrete: Reno and Cubic stepped through the CongestionControl interface,
// DCTCP and Prague grown through a closure, every chunk sized by
// int(Cwnd/4), and every round-trip tick applied by a method that reads the
// window itself. TestFFAdvanceMatchesDispatchReference holds FFAdvance to it
// bit for bit.
func ffAdvanceRef(e *Endpoint, acked, marked int, rtt, now time.Duration) {
	if acked <= 0 {
		return
	}
	s := &e.state
	chunkOf := func(rem int) int {
		chunk := int(s.Cwnd / 4)
		if chunk < 1 {
			chunk = 1
		}
		if chunk > rem {
			chunk = rem
		}
		return chunk
	}
	acks, tickNow := 0.0, now
	tick := func(chunk int) {
		acks += float64(chunk)
		win := s.Cwnd
		if win < 1 {
			win = 1
		}
		if acks >= win {
			acks = 0
			tickNow += rtt
			e.observeRTT(rtt)
		}
	}
	alpha := func(w *ecnWindow, grow func(chunk int)) {
		rem, remM := acked, marked
		for rem > 0 {
			chunk := chunkOf(rem)
			mw := 0
			if remM > 0 {
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
			grow(chunk)
			tick(chunk)
			rem -= chunk
			remM -= mw
		}
	}
	switch cc := e.cc.(type) {
	case Reno, *Cubic:
		for rem := acked; rem > 0; {
			chunk := chunkOf(rem)
			e.cc.OnAck(s, chunk, false, tickNow)
			tick(chunk)
			rem -= chunk
		}
	case *DCTCP:
		alpha(&cc.ecnWindow, func(chunk int) { renoIncrease(s, chunk) })
	case *Prague:
		alpha(&cc.ecnWindow, func(chunk int) { cc.increase(s, chunk) })
	case Scalable:
		if marked > 0 {
			s.Cwnd -= 0.5 * float64(marked)
			s.clampCwnd()
			if s.Ssthresh > s.Cwnd {
				s.Ssthresh = s.Cwnd
			}
		}
		for rem := acked - marked; rem > 0; {
			chunk := chunkOf(rem)
			renoIncrease(s, chunk)
			tick(chunk)
			rem -= chunk
		}
	}
}

// TestFFAdvanceMatchesDispatchReference drives each analytically stepped
// control through random (acked, marked, rtt) sequences — slow start, the
// ssthresh crossing, congestion avoidance, and reductions that send it back
// — on two twin endpoints, one through FFAdvance and one through
// ffAdvanceRef, and requires the window state, the RTT estimator, the ECN
// observation window and the control's own state to stay bit-identical.
func TestFFAdvanceMatchesDispatchReference(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() CongestionControl
		mode ECNMode
	}{
		{"reno", func() CongestionControl { return Reno{} }, ECNOff},
		{"cubic", func() CongestionControl { return &Cubic{} }, ECNOff},
		{"dctcp", func() CongestionControl { return &DCTCP{} }, ECNScalable},
		{"prague", func() CongestionControl { return &Prague{} }, ECNScalable},
		{"scalable", func() CongestionControl { return Scalable{} }, ECNScalable},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(41))
			var crossings, reductions, wide int
			for run := 0; run < 20; run++ {
				got := ffTestEndpoint(t, tc.mk(), tc.mode)
				want := ffTestEndpoint(t, tc.mk(), tc.mode)
				// Start in slow start: a small window, sometimes below one
				// segment, under a threshold the run will cross.
				cwnd := []float64{0.5, 1, 2, 3, 4}[rng.Intn(5)]
				ssthresh := 8 + float64(rng.Intn(40))
				for _, e := range []*Endpoint{got, want} {
					e.state.Cwnd, e.state.Ssthresh = cwnd, ssthresh
				}
				now := time.Duration(0)
				for step := 0; step < 60; step++ {
					acked := rng.Intn(int(2*got.state.Cwnd) + 4)
					marked := 0
					if acked > 0 && rng.Intn(3) > 0 {
						marked = rng.Intn(acked + 1)
					}
					rtt := time.Duration(5+rng.Intn(60)) * time.Millisecond
					wasSS := got.state.InSlowStart()
					if got.state.Cwnd >= 8 {
						wide++ // chunks of more than one ACK
					}
					got.FFAdvance(acked, marked, rtt, now)
					ffAdvanceRef(want, acked, marked, rtt, now)
					if wasSS && !got.state.InSlowStart() {
						crossings++
					}
					assertFFTwins(t, step, got, want)
					// Now and then a classic reduction, and rarely an RTO,
					// which sends the window back through slow start.
					switch r := rng.Intn(10); {
					case r == 0:
						got.FFSignal(now)
						want.FFSignal(now)
						reductions++
					case r == 1 && step%7 == 0:
						got.cc.OnRTO(&got.state, now)
						want.cc.OnRTO(&want.state, now)
					}
					now += rtt
				}
			}
			if crossings == 0 || reductions == 0 || wide == 0 {
				t.Fatalf("sequences too tame: %d ssthresh crossings, %d reductions, %d wide-window steps",
					crossings, reductions, wide)
			}
		})
	}
}

// assertFFTwins fails unless two endpoints' window state, RTT estimator,
// ECN observation window and congestion-control state are bit-identical.
func assertFFTwins(t *testing.T, step int, got, want *Endpoint) {
	t.Helper()
	if got.state != want.state {
		t.Fatalf("step %d: state %+v, reference %+v", step, got.state, want.state)
	}
	window := func(e *Endpoint) (ecnWindow, bool) {
		var w ecnWindow
		switch cc := e.cc.(type) {
		case *DCTCP:
			w = cc.ecnWindow
		case *Prague:
			w = cc.ecnWindow
		default:
			return w, false
		}
		w.sndUnaRef, w.sndNxtRef = nil, nil
		return w, true
	}
	if gw, ok := window(got); ok {
		if ww, _ := window(want); gw != ww {
			t.Fatalf("step %d: ecnWindow %+v, reference %+v", step, gw, ww)
		}
	}
	if gc, ok := got.cc.(*Cubic); ok {
		if wc := want.cc.(*Cubic); *gc != *wc {
			t.Fatalf("step %d: cubic %+v, reference %+v", step, *gc, *wc)
		}
	}
}
