package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"pi2/internal/aqm"
	"pi2/internal/packet"
)

type fakeQueue struct {
	bytes   int
	sojourn time.Duration
	rate    float64
}

func (f *fakeQueue) BacklogBytes() int                       { return f.bytes }
func (f *fakeQueue) BacklogPackets() int                     { return f.bytes / packet.FullLen }
func (f *fakeQueue) HeadSojourn(time.Duration) time.Duration { return f.sojourn }
func (f *fakeQueue) CapacityBps() float64                    { return f.rate }

func newPI2(cfg Config) *PI2 { return New(cfg, rand.New(rand.NewSource(1))) }

// driveTo raises p′ to roughly the requested value by running updates with
// an inflated queue, then freezing. Returns the PI2 with p′ near target.
func driveTo(t *testing.T, q2 *PI2, pPrime float64) {
	t.Helper()
	q := &fakeQueue{}
	for i := 0; i < 100000 && q2.PPrime() < pPrime; i++ {
		q.sojourn = time.Second
		q2.Update(q, time.Duration(i)*32*time.Millisecond)
	}
	if q2.PPrime() < pPrime-1e-9 {
		t.Fatalf("could not drive p' to %v (got %v)", pPrime, q2.PPrime())
	}
}

func TestDefaultsMatchPaper(t *testing.T) {
	cfg := Config{}
	cfg.setDefaults()
	if cfg.Alpha != 5.0/16 || cfg.Beta != 50.0/16 {
		t.Errorf("gains %v/%v, want 0.3125/3.125 (the paper's 2.5x PIE gains)", cfg.Alpha, cfg.Beta)
	}
	if cfg.K != 2 {
		t.Errorf("k = %v, want 2", cfg.K)
	}
	if tup := New(cfg, nil).UpdateInterval(); cfg.Target != 20*time.Millisecond || tup != 32*time.Millisecond {
		t.Errorf("target/tupdate %v/%v", cfg.Target, tup)
	}
	if cfg.MaxClassicProb != 0.25 {
		t.Errorf("classic cap %v, want 0.25", cfg.MaxClassicProb)
	}
}

func TestClassicProbabilityIsSquare(t *testing.T) {
	q2 := newPI2(Config{})
	driveTo(t, q2, 0.3)
	pp := q2.PPrime()
	if got := q2.DropProbability(); math.Abs(got-pp*pp) > 1e-12 {
		t.Errorf("classic prob = %v, want p'^2 = %v", got, pp*pp)
	}
}

func TestScalableProbabilityIsKTimes(t *testing.T) {
	q2 := newPI2(Config{})
	driveTo(t, q2, 0.3)
	pp := q2.PPrime()
	if got := q2.ScalableProbability(); math.Abs(got-2*pp) > 1e-12 {
		t.Errorf("scalable prob = %v, want k*p' = %v", got, 2*pp)
	}
}

func TestCouplingRelation14(t *testing.T) {
	// Equation (14): p_c = (p_s / k)^2 must hold exactly between the two
	// reported probabilities at any operating point.
	q2 := newPI2(Config{})
	driveTo(t, q2, 0.2)
	pc := q2.DropProbability()
	ps := q2.ScalableProbability()
	if math.Abs(pc-(ps/2)*(ps/2)) > 1e-12 {
		t.Errorf("pc = %v, (ps/k)^2 = %v", pc, (ps/2)*(ps/2))
	}
}

func TestPPrimeCapEnforcesClassicCap(t *testing.T) {
	q2 := newPI2(Config{})
	q := &fakeQueue{sojourn: 10 * time.Second}
	for i := 0; i < 10000; i++ {
		q2.Update(q, time.Duration(i)*32*time.Millisecond)
	}
	if pp := q2.PPrime(); math.Abs(pp-0.5) > 1e-9 {
		t.Errorf("p' = %v, want capped at 0.5 (sqrt of 25%%)", pp)
	}
	if pc := q2.DropProbability(); pc > 0.25+1e-9 {
		t.Errorf("classic prob %v exceeds 25%% cap", pc)
	}
	if ps := q2.ScalableProbability(); ps > 1 {
		t.Errorf("scalable prob %v exceeds 100%%", ps)
	}
}

func TestClassifierVerdicts(t *testing.T) {
	q2 := newPI2(Config{})
	driveTo(t, q2, 0.5) // p' = 0.5: classic prob 25 %, scalable prob 100 %
	q := &fakeQueue{}

	// Scalable (ECT(1)) at p_s = 1: always marked, never dropped.
	for i := 0; i < 100; i++ {
		if v := q2.Enqueue(packet.NewData(1, 0, packet.MSS, packet.ECT1), q, 0); v != aqm.Mark {
			t.Fatalf("ECT(1) verdict %v, want mark", v)
		}
	}
	// CE input (already marked) also takes the scalable path: stays Mark.
	if v := q2.Enqueue(packet.NewData(1, 0, packet.MSS, packet.CE), q, 0); v != aqm.Mark {
		t.Errorf("CE verdict %v, want mark", v)
	}
	// Classic ECT(0): marked (never dropped) with squared probability.
	marks := 0
	for i := 0; i < 4000; i++ {
		switch q2.Enqueue(packet.NewData(1, 0, packet.MSS, packet.ECT0), q, 0) {
		case aqm.Drop:
			t.Fatal("dropped an ECT(0) packet")
		case aqm.Mark:
			marks++
		}
	}
	if f := float64(marks) / 4000; math.Abs(f-0.25) > 0.03 {
		t.Errorf("ECT(0) mark rate %.3f, want ~0.25", f)
	}
	// Not-ECT: dropped with squared probability.
	drops := 0
	for i := 0; i < 4000; i++ {
		if q2.Enqueue(packet.NewData(1, 0, packet.MSS, packet.NotECT), q, 0) == aqm.Drop {
			drops++
		}
	}
	if f := float64(drops) / 4000; math.Abs(f-0.25) > 0.03 {
		t.Errorf("Not-ECT drop rate %.3f, want ~0.25", f)
	}
}

// TestSquareForms verifies the "multiply" and "max of two randoms" square
// implementations hit at statistically identical rates (the Section 4
// hardware/software equivalence claim).
func TestSquareForms(t *testing.T) {
	for _, pp := range []float64{0.05, 0.2, 0.5} {
		rates := make(map[bool]float64)
		for _, useMult := range []bool{false, true} {
			q2 := newPI2(Config{UseMultiply: useMult, MaxClassicProb: 1})
			driveTo(t, q2, pp)
			// Freeze p' exactly at pp for a fair comparison.
			q2.core.SetP(pp)
			q := &fakeQueue{}
			hits := 0
			const n = 200000
			for i := 0; i < n; i++ {
				if q2.Enqueue(packet.NewData(1, 0, packet.MSS, packet.NotECT), q, 0) == aqm.Drop {
					hits++
				}
			}
			rates[useMult] = float64(hits) / n
		}
		want := pp * pp
		for useMult, got := range rates {
			if math.Abs(got-want) > 0.01 {
				t.Errorf("p'=%v useMultiply=%v: rate %.4f, want %.4f", pp, useMult, got, want)
			}
		}
	}
}

// TestPropertySquaredRate: for random p′, the empirical Classic hit rate
// tracks p′² within binomial noise.
func TestPropertySquaredRate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(raw uint8) bool {
		pp := float64(raw%100) / 100
		q2 := newPI2(Config{MaxClassicProb: 1})
		q2.core.SetP(pp)
		q := &fakeQueue{}
		hits := 0
		const n = 20000
		for i := 0; i < n; i++ {
			if q2.Enqueue(packet.NewData(1, 0, packet.MSS, packet.NotECT), q, 0) == aqm.Drop {
				hits++
			}
		}
		return math.Abs(float64(hits)/n-pp*pp) < 0.02
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestZeroProbabilityPassesEverything(t *testing.T) {
	q2 := newPI2(Config{})
	q := &fakeQueue{}
	for i := 0; i < 100; i++ {
		for _, ecn := range []packet.ECN{packet.NotECT, packet.ECT0, packet.ECT1} {
			if v := q2.Enqueue(packet.NewData(1, 0, packet.MSS, ecn), q, 0); v != aqm.Accept {
				t.Fatalf("verdict %v at p'=0", v)
			}
		}
	}
}

func TestUpdateRespondsToQueue(t *testing.T) {
	q2 := newPI2(Config{})
	q := &fakeQueue{sojourn: 40 * time.Millisecond}
	q2.Update(q, 0)
	if q2.PPrime() <= 0 {
		t.Fatal("p' did not rise with queue above target")
	}
	// Queue empties: p' must decay to 0.
	q.sojourn = 0
	for i := 0; i < 1000; i++ {
		q2.Update(q, time.Duration(i)*32*time.Millisecond)
	}
	if q2.PPrime() != 0 {
		t.Errorf("p' = %v after long-empty queue, want 0", q2.PPrime())
	}
}

func TestNoHeuristics(t *testing.T) {
	// PI2's point: a fresh instance at high queue delay reacts on the
	// very first update — no burst allowance, no suppression.
	q2 := newPI2(Config{})
	q := &fakeQueue{sojourn: 100 * time.Millisecond}
	q2.Update(q, 0)
	want := (5.0/16)*(0.08) + (50.0/16)*(0.1)
	if got := q2.PPrime(); math.Abs(got-want) > 1e-12 {
		t.Errorf("first update p' = %v, want %v (no heuristics in the way)", got, want)
	}
}

func TestKOneDisablesCoupling(t *testing.T) {
	q2 := newPI2(Config{K: 1})
	q2.core.SetP(0.3)
	if got := q2.ScalableProbability(); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("k=1 scalable prob = %v, want p' itself", got)
	}
}

func TestName(t *testing.T) {
	if newPI2(Config{}).Name() != "pi2" {
		t.Error("name")
	}
	if newPI2(Config{}).UpdateInterval() != 32*time.Millisecond {
		t.Error("update interval")
	}
}
