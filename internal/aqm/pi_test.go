package aqm

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"pi2/internal/packet"
)

// fakeQueue is a controllable QueueInfo for unit tests.
type fakeQueue struct {
	bytes   int
	pkts    int
	sojourn time.Duration
	rate    float64
}

func (f *fakeQueue) BacklogBytes() int                       { return f.bytes }
func (f *fakeQueue) BacklogPackets() int                     { return f.pkts }
func (f *fakeQueue) HeadSojourn(time.Duration) time.Duration { return f.sojourn }
func (f *fakeQueue) CapacityBps() float64                    { return f.rate }

func TestPICoreUpdateMatchesEquation4(t *testing.T) {
	c := PICore{Alpha: 0.3125, Beta: 3.125, Target: 20 * time.Millisecond}
	// First update from τ = 30 ms (prev 0): Δp = α(0.03−0.02) + β(0.03−0).
	got := c.Update(30 * time.Millisecond)
	want := 0.3125*0.01 + 3.125*0.03
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("p after first update = %v, want %v", got, want)
	}
	// Second update from τ = 25 ms: Δp = α(0.005) + β(−0.005).
	got = c.Update(25 * time.Millisecond)
	want += 0.3125*0.005 + 3.125*(-0.005)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("p after second update = %v, want %v", got, want)
	}
}

func TestPICoreNeverNegative(t *testing.T) {
	c := PICore{Alpha: 0.125, Beta: 1.25, Target: 20 * time.Millisecond}
	for i := 0; i < 100; i++ {
		c.Update(0) // queue empty, error negative every time
	}
	if c.P() != 0 {
		t.Errorf("p = %v, want clamped to 0", c.P())
	}
}

func TestPICoreClampsAtPMax(t *testing.T) {
	c := PICore{Alpha: 10, Beta: 100, Target: time.Millisecond, PMax: 0.5}
	for i := 0; i < 100; i++ {
		c.Update(time.Second)
	}
	if c.P() != 0.5 {
		t.Errorf("p = %v, want clamped to PMax 0.5", c.P())
	}
}

func TestPICoreDefaultPMaxIsOne(t *testing.T) {
	c := PICore{Alpha: 10, Beta: 100, Target: time.Millisecond}
	for i := 0; i < 100; i++ {
		c.Update(time.Second)
	}
	if c.P() != 1 {
		t.Errorf("p = %v, want 1", c.P())
	}
}

func TestPICoreSetP(t *testing.T) {
	c := PICore{PMax: 0.25}
	c.SetP(0.9)
	if c.P() != 0.25 {
		t.Errorf("SetP did not clamp: %v", c.P())
	}
	c.SetP(-1)
	if c.P() != 0 {
		t.Errorf("SetP did not clamp negative: %v", c.P())
	}
}

func TestDepartRateEstimator(t *testing.T) {
	var d DepartRateEstimator
	if _, ok := d.RateBps(); ok {
		t.Fatal("fresh estimator claims a rate")
	}
	// Below threshold: no cycle starts.
	d.OnDequeue(1500, 1000, 0)
	if _, ok := d.RateBps(); ok {
		t.Fatal("rate measured without a full cycle")
	}
	// Backlog above threshold starts a cycle; 16 KiB over 13.1 ms at
	// 10 Mb/s.
	now := time.Duration(0)
	d.OnDequeue(1500, DefaultDQThreshold+1, now)
	perPkt := time.Duration(float64(1500*8) / 10e6 * float64(time.Second))
	for i := 0; i < 12; i++ {
		now += perPkt
		d.OnDequeue(1500, DefaultDQThreshold, now)
	}
	r, ok := d.RateBps()
	if !ok {
		t.Fatal("no rate after a full cycle")
	}
	if math.Abs(r-10e6)/10e6 > 0.05 {
		t.Errorf("rate = %.0f, want ~10e6", r)
	}
}

func TestDepartRateEstimatorEWMA(t *testing.T) {
	var d DepartRateEstimator
	cycle := func(rateBps float64, start time.Duration) time.Duration {
		now := start
		d.OnDequeue(1500, DefaultDQThreshold+1, now)
		perPkt := time.Duration(float64(1500*8) / rateBps * float64(time.Second))
		for i := 0; i < 12; i++ {
			now += perPkt
			d.OnDequeue(1500, DefaultDQThreshold, now)
		}
		return now
	}
	now := cycle(10e6, 0)
	cycle(20e6, now+time.Millisecond)
	r, _ := d.RateBps()
	// EWMA 1/2 of 10 and 20 Mb/s ≈ 15 Mb/s.
	if r < 13e6 || r > 17e6 {
		t.Errorf("EWMA rate = %.0f, want ~15e6", r)
	}
}

func TestEstimateDelayVariants(t *testing.T) {
	q := &fakeQueue{bytes: 12500, sojourn: 7 * time.Millisecond, rate: 10e6}
	if got := EstimateDelay(EstimateBySojourn, q, nil, 0); got != 7*time.Millisecond {
		t.Errorf("sojourn = %v", got)
	}
	// 12500 B × 8 / 10 Mb/s = 10 ms.
	if got := EstimateDelay(EstimateByCapacity, q, nil, 0); got != 10*time.Millisecond {
		t.Errorf("capacity = %v", got)
	}
	// Rate estimator without a valid measurement ⇒ 0 (like Linux PIE
	// before its first cycle).
	var d DepartRateEstimator
	if got := EstimateDelay(EstimateByRate, q, &d, 0); got != 0 {
		t.Errorf("rate without measurement = %v, want 0", got)
	}
	if got := EstimateDelay(EstimateByRate, q, nil, 0); got != 0 {
		t.Errorf("rate with nil estimator = %v, want 0", got)
	}
}

func TestEstimateDelayZeroCapacity(t *testing.T) {
	q := &fakeQueue{bytes: 1000, rate: 0}
	if got := EstimateDelay(EstimateByCapacity, q, nil, 0); got != 0 {
		t.Errorf("zero-capacity delay = %v, want 0", got)
	}
}

func TestPIDropsAtControlledProbability(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pi := NewPI(PIConfig{Target: 20 * time.Millisecond, Estimator: EstimateBySojourn}, rng)
	q := &fakeQueue{sojourn: 120 * time.Millisecond, rate: 10e6}
	// Drive p up with a standing 120 ms queue.
	for i := 0; i < 200; i++ {
		pi.Update(q, time.Duration(i)*32*time.Millisecond)
	}
	p := pi.DropProbability()
	if p <= 0.05 {
		t.Fatalf("p = %v, want substantial", p)
	}
	drops := 0
	const n = 20000
	for i := 0; i < n; i++ {
		pkt := packet.NewData(1, 0, packet.MSS, packet.NotECT)
		if pi.Enqueue(pkt, q, 0) == Drop {
			drops++
		}
	}
	got := float64(drops) / n
	if math.Abs(got-p) > 0.02 {
		t.Errorf("empirical drop rate %.3f, want ~%.3f", got, p)
	}
}

func TestPIMarksECNWhenEnabled(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pi := NewPI(PIConfig{ECN: true}, rng)
	q := &fakeQueue{sojourn: 500 * time.Millisecond}
	for i := 0; i < 500; i++ {
		pi.Update(q, 0)
	}
	sawMark := false
	for i := 0; i < 100; i++ {
		pkt := packet.NewData(1, 0, packet.MSS, packet.ECT0)
		switch pi.Enqueue(pkt, q, 0) {
		case Drop:
			t.Fatal("dropped an ECN-capable packet with ECN enabled")
		case Mark:
			sawMark = true
		}
	}
	if !sawMark {
		t.Error("never marked despite high p")
	}
}

func TestPIDefaults(t *testing.T) {
	pi := NewPI(PIConfig{}, rand.New(rand.NewSource(1)))
	if pi.cfg.Alpha != 0.125 || pi.cfg.Beta != 1.25 {
		t.Errorf("default gains = %v/%v", pi.cfg.Alpha, pi.cfg.Beta)
	}
	if pi.cfg.Target != 20*time.Millisecond {
		t.Errorf("default target = %v", pi.cfg.Target)
	}
	if pi.UpdateInterval() != 32*time.Millisecond {
		t.Errorf("UpdateInterval = %v", pi.UpdateInterval())
	}
	if pi.Name() != "pi" {
		t.Errorf("Name = %q", pi.Name())
	}
}

func TestTailDrop(t *testing.T) {
	td := TailDrop{}
	if td.Name() != "taildrop" {
		t.Error("name")
	}
	if td.Enqueue(nil, nil, 0) != Accept {
		t.Error("taildrop must accept everything")
	}
	if td.UpdateInterval() != 0 {
		t.Error("taildrop needs no timer")
	}
}

func TestVerdictString(t *testing.T) {
	for v, want := range map[Verdict]string{
		Accept: "accept", Mark: "mark", Drop: "drop", Verdict(9): "invalid",
	} {
		if got := v.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", v, got, want)
		}
	}
}

func TestDelayEstimatorString(t *testing.T) {
	for v, want := range map[DelayEstimator]string{
		EstimateBySojourn: "sojourn", EstimateByRate: "rate",
		EstimateByCapacity: "capacity", DelayEstimator(9): "invalid",
	} {
		if got := v.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}
