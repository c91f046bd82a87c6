package aqm

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"pi2/internal/packet"
)

func newTestPIE(cfg PIEConfig) *PIE {
	return NewPIE(cfg, rand.New(rand.NewSource(1)))
}

func TestAutoTuneFactorTable(t *testing.T) {
	// The RFC 8033 lookup table, extended down to 0.0001 % (Figure 5).
	cases := []struct {
		p    float64
		want float64
	}{
		{1e-7, 1.0 / 2048},
		{5e-6, 1.0 / 512},
		{5e-5, 1.0 / 128},
		{5e-4, 1.0 / 32},
		{5e-3, 1.0 / 8},
		{5e-2, 1.0 / 2},
		{0.5, 1},
		{1, 1},
	}
	for _, c := range cases {
		if got := AutoTuneFactor(c.p); got != c.want {
			t.Errorf("AutoTuneFactor(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestAutoTuneTracksSqrtLaw(t *testing.T) {
	// Section 3: the steps broadly fit √(2p). Verify each step midpoint is
	// within a factor of 4 of the law over the designed range.
	for _, p := range []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.05} {
		tune := AutoTuneFactor(p)
		law := math.Sqrt(2 * p)
		ratio := tune / law
		if ratio < 0.25 || ratio > 4 {
			t.Errorf("p=%v: tune=%v vs sqrt(2p)=%v (ratio %.2f)", p, tune, law, ratio)
		}
	}
}

func TestPIEBurstAllowanceSuppressesEarlyDrops(t *testing.T) {
	cfg := DefaultPIEConfig()
	pe := newTestPIE(cfg)
	q := &fakeQueue{bytes: 100000, sojourn: 200 * time.Millisecond, rate: 10e6}
	// Even with a crazy p, the burst allowance must pass packets through.
	pe.core.SetP(1)
	for i := 0; i < 100; i++ {
		if v := pe.Enqueue(packet.NewData(1, 0, packet.MSS, packet.NotECT), q, 0); v != Accept {
			t.Fatalf("verdict %v during burst allowance, want accept", v)
		}
	}
}

func TestPIEBurstAllowanceExpires(t *testing.T) {
	cfg := DefaultPIEConfig()
	cfg.Estimator = EstimateBySojourn
	pe := newTestPIE(cfg)
	q := &fakeQueue{bytes: 100000, sojourn: 300 * time.Millisecond, rate: 10e6}
	// Burn through the 100 ms allowance (updates every 32 ms) and build p.
	for i := 0; i < 300; i++ {
		pe.Update(q, time.Duration(i)*32*time.Millisecond)
	}
	drops := 0
	for i := 0; i < 1000; i++ {
		if pe.Enqueue(packet.NewData(1, 0, packet.MSS, packet.NotECT), q, 0) == Drop {
			drops++
		}
	}
	if drops == 0 {
		t.Error("no drops after burst allowance expired under heavy queue")
	}
}

func TestPIESuppressRule(t *testing.T) {
	cfg := BarePIEConfig()
	cfg.Suppress = true
	pe := newTestPIE(cfg)
	pe.core.SetP(0.19) // below the 20 % threshold
	pe.qdelay = 5 * time.Millisecond
	q := &fakeQueue{bytes: 100000}
	for i := 0; i < 200; i++ {
		if v := pe.Enqueue(packet.NewData(1, 0, packet.MSS, packet.NotECT), q, 0); v != Accept {
			t.Fatalf("suppress rule violated: %v", v)
		}
	}
	// Above 20 % the rule no longer applies.
	pe.core.SetP(0.99)
	drops := 0
	for i := 0; i < 200; i++ {
		if pe.Enqueue(packet.NewData(1, 0, packet.MSS, packet.NotECT), q, 0) == Drop {
			drops++
		}
	}
	if drops == 0 {
		t.Error("no drops above the suppression threshold")
	}
}

func TestPIEMinBacklogExemption(t *testing.T) {
	cfg := BarePIEConfig()
	cfg.MinBacklog = 2 * packet.FullLen
	pe := newTestPIE(cfg)
	pe.core.SetP(1)
	q := &fakeQueue{bytes: packet.FullLen} // one packet queued
	if v := pe.Enqueue(packet.NewData(1, 0, packet.MSS, packet.NotECT), q, 0); v != Accept {
		t.Errorf("tiny queue not exempt: %v", v)
	}
}

func TestPIEECNMarkBelowThresholdDropAbove(t *testing.T) {
	cfg := BarePIEConfig()
	cfg.ECN = true
	pe := newTestPIE(cfg)
	q := &fakeQueue{bytes: 1 << 20}

	pe.core.SetP(0.05) // below the 10 % ECN threshold
	marked, dropped := 0, 0
	for i := 0; i < 5000; i++ {
		switch pe.Enqueue(packet.NewData(1, 0, packet.MSS, packet.ECT0), q, 0) {
		case Mark:
			marked++
		case Drop:
			dropped++
		}
	}
	if dropped > 0 || marked == 0 {
		t.Errorf("below threshold: marked=%d dropped=%d, want marks only", marked, dropped)
	}

	pe.core.SetP(0.5) // above the threshold: ECN packets are dropped
	marked, dropped = 0, 0
	for i := 0; i < 5000; i++ {
		switch pe.Enqueue(packet.NewData(1, 0, packet.MSS, packet.ECT0), q, 0) {
		case Mark:
			marked++
		case Drop:
			dropped++
		}
	}
	if marked > 0 || dropped == 0 {
		t.Errorf("above threshold: marked=%d dropped=%d, want drops only", marked, dropped)
	}
}

func TestPIEReworkedECNNeverDrops(t *testing.T) {
	cfg := BarePIEConfig()
	cfg.ECN = true
	cfg.ReworkedECN = true
	pe := newTestPIE(cfg)
	q := &fakeQueue{bytes: 1 << 20, sojourn: time.Second}
	// Saturate the controller; p must cap at 25 %.
	for i := 0; i < 1000; i++ {
		pe.Update(q, time.Duration(i)*32*time.Millisecond)
	}
	if p := pe.DropProbability(); p > 0.25+1e-9 {
		t.Errorf("p = %v, want capped at 0.25", p)
	}
	for i := 0; i < 2000; i++ {
		if pe.Enqueue(packet.NewData(1, 0, packet.MSS, packet.ECT1), q, 0) == Drop {
			t.Fatal("reworked overload rule dropped an ECN packet")
		}
	}
}

func TestPIEDeltaCap(t *testing.T) {
	cfg := BarePIEConfig()
	cfg.DeltaCap = true
	cfg.AutoTune = false
	cfg.Estimator = EstimateBySojourn
	pe := newTestPIE(cfg)
	pe.core.SetP(0.15)
	q := &fakeQueue{sojourn: 10 * time.Second} // raw Δp would be enormous
	before := pe.DropProbability()
	pe.Update(q, 0)
	if got := pe.DropProbability() - before; got > 0.02+1e-9 {
		t.Errorf("Δp = %v, want capped at 0.02", got)
	}
}

func TestPIEDecayWhenIdle(t *testing.T) {
	cfg := BarePIEConfig()
	cfg.Decay = true
	cfg.Estimator = EstimateBySojourn
	pe := newTestPIE(cfg)
	pe.core.SetP(0.5)
	q := &fakeQueue{} // empty queue
	pe.Update(q, 0)   // records qdelay 0 (prev also 0 ⇒ decay applies)
	p1 := pe.DropProbability()
	if p1 >= 0.5 {
		t.Fatalf("decay did not shrink p: %v", p1)
	}
	// Repeated idle updates decay toward 0. The PI integral term also
	// subtracts; either way p must approach 0.
	for i := 0; i < 2000; i++ {
		pe.Update(q, time.Duration(i)*32*time.Millisecond)
	}
	if pe.DropProbability() > 1e-3 {
		t.Errorf("p = %v after long idle, want ~0", pe.DropProbability())
	}
}

func TestBarePIEDisablesHeuristics(t *testing.T) {
	cfg := BarePIEConfig()
	if cfg.BurstAllowance != 0 || cfg.Suppress || cfg.DeltaCap || cfg.BigDropCap || cfg.Decay || cfg.MinBacklog != 0 {
		t.Errorf("bare-PIE has heuristics enabled: %+v", cfg)
	}
	if !cfg.AutoTune {
		t.Error("bare-PIE must keep auto-tune (it is PIE's defining scaling)")
	}
	if newTestPIE(cfg).Name() != "bare-pie" {
		t.Error("bare-PIE name")
	}
	if newTestPIE(DefaultPIEConfig()).Name() != "pie" {
		t.Error("PIE name")
	}
}

func TestPIEConvergesToTargetDelayInput(t *testing.T) {
	// Feed the controller a queue that tracks p: a crude closed loop
	// emulating W ∝ 1/√p Reno load. The controller must settle with the
	// delay near target rather than oscillating unboundedly.
	cfg := DefaultPIEConfig()
	cfg.Estimator = EstimateBySojourn
	pe := newTestPIE(cfg)
	q := &fakeQueue{bytes: 1 << 20}
	delay := 100 * time.Millisecond
	for i := 0; i < 3000; i++ {
		q.sojourn = delay
		pe.Update(q, time.Duration(i)*32*time.Millisecond)
		p := pe.DropProbability()
		// Load model: queue shrinks when p is above the equilibrium
		// 0.01 and grows when below.
		adj := time.Duration((0.01 - p) * 3e9 * 0.032)
		delay += adj
		if delay < 0 {
			delay = 0
		}
	}
	if d := delay; d < 5*time.Millisecond || d > 80*time.Millisecond {
		t.Errorf("loop settled at %v, want near 20 ms target", d)
	}
}
