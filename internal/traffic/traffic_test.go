package traffic

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"pi2/internal/link"
	"pi2/internal/sim"
)

func newNet(seed int64, rateBps float64) (*sim.Simulator, *link.Link, *link.Dispatcher) {
	s := sim.New(seed)
	d := link.NewDispatcher()
	l := link.New(s, link.Config{RateBps: rateBps}, d.Deliver)
	return s, l, d
}

func TestUDPSourceRate(t *testing.T) {
	s, l, d := newNet(1, 100e6)
	u := StartUDP(s, l, d, 1, UDPSpec{RateBps: 6e6})
	s.RunUntil(10 * time.Second)
	got := u.Received.RateBps(s.Now())
	if math.Abs(got-6e6)/6e6 > 0.02 {
		t.Errorf("UDP rate = %.0f, want ~6e6", got)
	}
}

func TestUDPStartStop(t *testing.T) {
	s, l, d := newNet(1, 100e6)
	u := StartUDP(s, l, d, 1, UDPSpec{
		RateBps: 6e6,
		StartAt: 2 * time.Second,
		StopAt:  4 * time.Second,
	})
	s.RunUntil(time.Second)
	if u.Received.Bytes() != 0 {
		t.Error("UDP sent before StartAt")
	}
	s.RunUntil(10 * time.Second)
	// Received ~2 s worth of 6 Mb/s = 1.5 MB.
	got := float64(u.Received.Bytes())
	want := 6e6 / 8 * 2
	if math.Abs(got-want)/want > 0.05 {
		t.Errorf("bytes = %.0f, want ~%.0f (2 s of traffic)", got, want)
	}
}

func TestStagedCountsSchedule(t *testing.T) {
	// A small buffer keeps tail-drop queuing delay bounded so late-stage
	// flows get ACKs promptly (no AQM in this unit test).
	s := sim.New(1)
	d := link.NewDispatcher()
	l := link.New(s, link.Config{RateBps: 100e6, BufferPackets: 100}, d.Deliver)
	counts := []int{2, 5, 3}
	stage := time.Second
	eps, next := StagedCounts(s, l, d, 1, "reno", 10*time.Millisecond, counts, stage)
	if len(eps) != 5 || next != 6 {
		t.Fatalf("eps=%d next=%d, want 5/6", len(eps), next)
	}
	// Mid-stage checks: count flows that have sent anything and not stopped.
	s.RunUntil(stage / 2)
	sent := 0
	for _, e := range eps {
		if e.Goodput.Bytes() > 0 || !e.Stopped() && e.State().Cwnd > 0 && e.State().SRTT > 0 {
			sent++
		}
	}
	if sent != 2 {
		t.Errorf("stage 0 active flows = %d, want 2", sent)
	}
	s.RunUntil(stage + stage/2)
	sent = 0
	for _, e := range eps {
		if e.State().SRTT > 0 && !e.Stopped() {
			sent++
		}
	}
	if sent != 5 {
		t.Errorf("stage 1 active flows = %d, want 5", sent)
	}
	s.RunUntil(2*stage + stage/2)
	stopped := 0
	for _, e := range eps {
		if e.Stopped() {
			stopped++
		}
	}
	if stopped != 2 {
		t.Errorf("stage 2 stopped flows = %d, want 2 (5 -> 3)", stopped)
	}
}

func TestStagedUnimodalRanks(t *testing.T) {
	// Rank 0 must persist across the whole 10:30:50:30:10 schedule; the
	// highest ranks exist only during the peak stage.
	s := sim.New(1)
	d := link.NewDispatcher()
	l := link.New(s, link.Config{RateBps: 100e6, BufferPackets: 100}, d.Deliver)
	counts := []int{10, 30, 50, 30, 10}
	eps, _ := StagedCounts(s, l, d, 1, "reno", 10*time.Millisecond, counts, time.Second)
	if len(eps) != 50 {
		t.Fatalf("eps = %d, want 50", len(eps))
	}
	s.RunUntil(5 * time.Second)
	// The first 10 ranks never stop (active in the final stage).
	for i := 0; i < 10; i++ {
		if eps[i].Stopped() {
			t.Errorf("rank %d stopped but is active in every stage", i)
		}
	}
	for i := 10; i < 50; i++ {
		if !eps[i].Stopped() {
			t.Errorf("rank %d still active after its last stage", i)
		}
	}
}

func TestBoundedParetoRange(t *testing.T) {
	f := func(raw uint32) bool {
		u := float64(raw) / float64(math.MaxUint32)
		x := boundedPareto(u, 1.2, 2, 2000)
		return x >= 2-1e-9 && x <= 2000+1e-9
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(8))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestBoundedParetoHeavyTail(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var small, large int
	for i := 0; i < 100000; i++ {
		x := boundedPareto(rng.Float64(), 1.2, 2, 2000)
		if x < 10 {
			small++
		}
		if x > 500 {
			large++
		}
	}
	if small < 60000 {
		t.Errorf("small flows = %d of 100000, want the heavy-tail bulk", small)
	}
	if large == 0 {
		t.Error("no large flows: tail missing")
	}
}

func TestExpRandMean(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const lambda = 20.0
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += expRand(rng.Float64(), lambda)
	}
	mean := sum / n
	if math.Abs(mean-1/lambda)/(1/lambda) > 0.05 {
		t.Errorf("mean gap = %v, want %v", mean, 1/lambda)
	}
}

func TestWebWorkloadCompletesFlows(t *testing.T) {
	s, l, d := newNet(4, 100e6)
	nextID := 1
	w := StartWeb(s, l, d, &nextID, WebSpec{
		ArrivalRate: 50,
		CC:          "reno",
		RTT:         10 * time.Millisecond,
		StopAt:      5 * time.Second,
	})
	s.RunUntil(20 * time.Second)
	if w.Started < 100 {
		t.Errorf("started %d flows, want ~250", w.Started)
	}
	if w.Finished < w.Started*9/10 {
		t.Errorf("finished %d of %d", w.Finished, w.Started)
	}
	if w.FCT.N() != w.Finished {
		t.Error("FCT sample count mismatch")
	}
	if w.FCT.Mean() <= 0 {
		t.Error("nonpositive mean FCT")
	}
	if nextID != w.Started+1 {
		t.Errorf("nextID %d after %d flows", nextID, w.Started)
	}
}
