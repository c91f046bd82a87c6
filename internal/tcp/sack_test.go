package tcp

import (
	"reflect"
	"testing"
	"time"

	"pi2/internal/aqm"
	"pi2/internal/link"
	"pi2/internal/sim"
)

func TestSackBlocks(t *testing.T) {
	cases := []struct {
		in     []int64
		recent int64
		want   [][2]int64
	}{
		{nil, -1, nil},
		{[]int64{5}, -1, [][2]int64{{5, 6}}},
		{[]int64{5, 6, 7}, -1, [][2]int64{{5, 8}}},
		{[]int64{5, 7, 8, 12}, -1, [][2]int64{{5, 6}, {7, 9}, {12, 13}}},
		// More than four runs, no recent hint: lowest four.
		{[]int64{1, 3, 5, 7, 9, 11}, -1, [][2]int64{{1, 2}, {3, 4}, {5, 6}, {7, 8}}},
		// The run containing the triggering segment comes first, then
		// wrap-around order, capped at four.
		{[]int64{1, 3, 5, 7, 9, 11}, 9, [][2]int64{{9, 10}, {11, 12}, {1, 2}, {3, 4}}},
		{[]int64{5, 7, 8, 12}, 8, [][2]int64{{7, 9}, {12, 13}, {5, 6}}},
	}
	for _, c := range cases {
		if got := sackBlocks(c.in, c.recent).Ranges(); !reflect.DeepEqual(got, c.want) {
			t.Errorf("sackBlocks(%v, %d) = %v, want %v", c.in, c.recent, got, c.want)
		}
	}
}

// sentRing returns a segment ring holding segments [0, n), all sent once.
func sentRing(n int64) *segRing {
	var r segRing
	for seq := int64(0); seq < n; seq++ {
		r.sent(seq, 0, false)
	}
	return &r
}

func TestScoreboardRecordAndPipe(t *testing.T) {
	r := sentRing(8)
	var sb sackBoard
	sb.record(r, [][2]int64{{5, 8}}, 0) // 5,6,7 sacked
	if sb.cntSacked != 3 || sb.highest != 8 {
		t.Fatalf("cntSacked=%d highest=%d", sb.cntSacked, sb.highest)
	}
	// FACK: 0..4 have 3 sacked above them once highest-3 >= 5.
	if n := sb.inferLosses(r, 0); n != 5 {
		t.Errorf("inferred %d losses, want 5 (0..4)", n)
	}
	// pipe with sndNxt = 8: 8 outstanding − 3 sacked − 5 lost = 0.
	if p := sb.pipe(0, 8); p != 0 {
		t.Errorf("pipe = %d, want 0", p)
	}
	// Retransmitting one loss raises pipe by one.
	seq, ok := sb.nextRetx(r, 0)
	if !ok || seq != 0 {
		t.Fatalf("nextRetx = %d,%v", seq, ok)
	}
	r.sent(seq, 0, true)
	sb.markRetx(r, seq)
	if p := sb.pipe(0, 8); p != 1 {
		t.Errorf("pipe after retx = %d, want 1", p)
	}
}

func TestScoreboardAdvanceCleans(t *testing.T) {
	r := sentRing(8)
	var sb sackBoard
	sb.record(r, [][2]int64{{5, 8}}, 0)
	sb.inferLosses(r, 0)
	sb.advance(r, 0, 8)
	r.ackTo(8)
	if sb.cntSacked != 0 || sb.cntLostUnretx != 0 {
		t.Errorf("counters after advance: sacked=%d lost=%d", sb.cntSacked, sb.cntLostUnretx)
	}
	if _, ok := sb.nextRetx(r, 8); ok {
		t.Error("stale retransmission after advance")
	}
}

func TestScoreboardLateLossStillQueued(t *testing.T) {
	// Losses inferred after earlier ones were exhausted must still be
	// retransmitted (the bug class an exhausted cursor would cause).
	r := sentRing(13)
	var sb sackBoard
	sb.record(r, [][2]int64{{5, 8}}, 0)
	sb.inferLosses(r, 0)
	for {
		seq, ok := sb.nextRetx(r, 0)
		if !ok {
			break
		}
		r.sent(seq, 0, true)
		sb.markRetx(r, seq)
	}
	sb.record(r, [][2]int64{{10, 13}}, 0) // 8, 9 now have 3 above
	sb.inferLosses(r, 0)
	seq, ok := sb.nextRetx(r, 0)
	if !ok || seq != 8 {
		t.Errorf("late loss nextRetx = %d,%v, want 8", seq, ok)
	}
}

func TestSACKSingleLossNoRTO(t *testing.T) {
	s, ep, _ := harness(t, &dropSet{drop: map[int64]bool{30: true}},
		Config{CC: Reno{}, SACK: true})
	ep.Start()
	s.RunUntil(2 * time.Second)
	if ep.Retransmissions() != 1 {
		t.Errorf("retransmissions = %d, want 1", ep.Retransmissions())
	}
	if ep.RTOCount() != 0 {
		t.Errorf("RTO fired %d times", ep.RTOCount())
	}
	if ep.CongestionEvents() != 1 {
		t.Errorf("congestion events = %d, want 1", ep.CongestionEvents())
	}
	if ep.State().InRecovery {
		t.Error("stuck in recovery")
	}
}

func TestSACKBurstLossOneRTT(t *testing.T) {
	// Ten losses scattered in one window: SACK retransmits them all in
	// about one round trip with a single congestion event; NewReno would
	// need a partial-ACK round trip per hole.
	drops := map[int64]bool{}
	for i := int64(40); i < 60; i += 2 {
		drops[i] = true
	}
	sSack, epSack, _ := harness(t, &dropSet{drop: copyMap(drops)}, Config{CC: Reno{}, SACK: true})
	epSack.Start()
	sSack.RunUntil(3 * time.Second)

	sReno, epReno, _ := harness(t, &dropSet{drop: copyMap(drops)}, Config{CC: Reno{}})
	epReno.Start()
	sReno.RunUntil(3 * time.Second)

	if epSack.RTOCount() != 0 {
		t.Errorf("SACK needed %d RTOs for a recoverable burst", epSack.RTOCount())
	}
	if epSack.CongestionEvents() != 1 {
		t.Errorf("SACK congestion events = %d, want 1 for one loss window", epSack.CongestionEvents())
	}
	if epSack.Retransmissions() != 10 {
		t.Errorf("SACK retransmissions = %d, want exactly the 10 losses", epSack.Retransmissions())
	}
	// SACK must deliver at least as much as NewReno over the same time.
	if epSack.Goodput.Bytes() < epReno.Goodput.Bytes() {
		t.Errorf("SACK goodput %d < NewReno %d", epSack.Goodput.Bytes(), epReno.Goodput.Bytes())
	}
	t.Logf("goodput: sack=%d newreno=%d (bytes)", epSack.Goodput.Bytes(), epReno.Goodput.Bytes())
}

func copyMap(m map[int64]bool) map[int64]bool {
	out := make(map[int64]bool, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func TestSACKLostRetransmitFallsBackToRTO(t *testing.T) {
	a := &stubbornDropper{seq: 30, times: 2}
	s, ep, _ := harness(t, a, Config{CC: Reno{}, SACK: true})
	ep.Start()
	s.RunUntil(5 * time.Second)
	if ep.RTOCount() == 0 {
		t.Error("RTO never fired for a twice-lost segment")
	}
	if ep.Goodput.RateBps(s.Now()) == 0 {
		t.Error("stalled")
	}
}

func TestSACKWithAQMEndToEnd(t *testing.T) {
	// SACK flows through a real AQM-managed bottleneck without
	// pathologies and keeps the link busy. bare-PIE is used because the
	// plain non-tuned PI drives p to ~0.7 during slow-start overshoot —
	// precisely the pathology the paper attributes to it — and under a
	// 70 % drop rate, tail-loss RTOs are correct TCP behaviour, not a
	// SACK defect. Statistics are taken after a 5 s warm-up.
	s := sim.New(1)
	d := link.NewDispatcher()
	l := link.New(s, link.Config{
		RateBps: 10e6,
		AQM:     aqm.NewPIE(aqm.BarePIEConfig(), s.RNG()),
	}, d.Deliver)
	ep := New(s, l, Config{ID: 1, CC: &Cubic{}, SACK: true, BaseRTT: 50 * time.Millisecond})
	d.Register(1, ep.DeliverData)
	ep.Start()
	s.RunUntil(5 * time.Second)
	ep.Goodput.Reset(s.Now())
	rtosBefore := ep.RTOCount()
	s.RunUntil(25 * time.Second)
	util := float64(ep.Goodput.Bytes()*8) / (10e6 * 20)
	if util < 0.8 {
		t.Errorf("goodput share %.3f, want near full", util)
	}
	if got := ep.RTOCount() - rtosBefore; got > 2 {
		t.Errorf("RTOs = %d in steady state under AQM drops with SACK", got)
	}
}

func TestDelayedAckStretch(t *testing.T) {
	// AckEvery = 2 halves the ACK count without stalling the transfer.
	s, ep, _ := harness(t, nil, Config{CC: Reno{}, AckEvery: 2, FlowSegs: 101})
	ep.Start()
	s.RunUntil(5 * time.Second)
	if !ep.Completed() {
		t.Fatal("flow with delayed ACKs did not complete (delayed-ACK timer broken?)")
	}
}

func TestDelayedAckTimerFlushesTail(t *testing.T) {
	// A flow whose last segment leaves ackPending = 1 must still finish,
	// via the delayed-ACK timeout.
	s, ep, _ := harness(t, nil, Config{CC: Reno{}, AckEvery: 4, FlowSegs: 9})
	ep.Start()
	s.RunUntil(5 * time.Second)
	if !ep.Completed() {
		t.Fatal("tail ACK never flushed")
	}
}

func TestDelayedAckReducesAckLoad(t *testing.T) {
	// count wraps the ACK arrival callback, so it counts every ACK that
	// reached the sender.
	count := func(ackEvery int) int {
		s, ep, _ := harness(t, nil, Config{CC: Reno{}, AckEvery: ackEvery, FlowSegs: 200})
		acks := 0
		ep.grp.arrive = func() { acks++; ep.grp.ackArrive() }
		ep.Start()
		s.RunUntil(5 * time.Second)
		if !ep.Completed() {
			t.Fatalf("AckEvery=%d: flow did not complete", ackEvery)
		}
		return acks
	}
	every1 := count(1)
	every4 := count(4)
	if every1 < 200 {
		t.Errorf("AckEvery=1 returned %d ACKs for 200 segments", every1)
	}
	if every4 > every1/2 {
		t.Errorf("ACK arrivals: every4=%d not well below every1=%d", every4, every1)
	}
}

func TestDCTCPAccurateFeedbackSurvivesStretchAcks(t *testing.T) {
	// With AckEvery = 2 and the CE-change flush rule, DCTCP's alpha must
	// still converge near the marking probability.
	const p = 0.15
	s := sim.New(9)
	d := link.NewDispatcher()
	l := link.New(s, link.Config{
		RateBps: 1e9,
		AQM:     &bernoulli{p: p, mark: true, rng: s.RNG()},
	}, d.Deliver)
	cc := &DCTCP{}
	ep := New(s, l, Config{ID: 1, CC: cc, ECN: ECNScalable, BaseRTT: 20 * time.Millisecond, AckEvery: 2})
	d.Register(1, ep.DeliverData)
	ep.Start()
	s.RunUntil(60 * time.Second)
	if a := cc.Alpha(); a < p-0.1 || a > p+0.1 {
		t.Errorf("alpha = %.3f with stretch ACKs, want ~%.2f", a, p)
	}
}
