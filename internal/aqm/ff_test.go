package aqm

import (
	"math/rand"
	"testing"
	"time"

	"pi2/internal/packet"
)

// The fast-forward equivalence tests drive two same-seed twins of an AQM:
// one through the packet-mode interface (Enqueue with real packets and a
// QueueInfo, Update with a sojourn-mode estimator) and one through the
// FastForwarder interface (FFDecideN/FFUpdate fed the synthetic
// equivalents). Equal verdict streams and probability trajectories prove the
// ff engine consumes exactly the RNG draws and control-law steps packet mode
// would.

// verdictOf folds a one-packet FFDecideN result back into a Verdict.
func verdictOf(accepted, marked, dropped int) Verdict {
	switch {
	case dropped == 1:
		return Drop
	case marked == 1:
		return Mark
	case accepted == 1:
		return Accept
	}
	panic("verdictOf: not a one-packet batch")
}

// ffBatchSizes are the batch lengths the batch-vs-single tests cover.
var ffBatchSizes = []int{0, 1, 2, 7, 64}

// checkDecideN compares batch(ecn, n) — an FFDecideN — against n verdicts
// of single(ecn) — Enqueue on a same-seed twin — for every ECN codepoint and
// batch size, then asserts the twins' next draws agree. It returns the
// batch side's mark and drop totals, so callers can require the draws were
// exercised.
func checkDecideN(t *testing.T, step int, single func(packet.ECN) Verdict,
	batch func(packet.ECN, int) (int, int, int), singleRNG, batchRNG *Draws) (marks, drops int) {
	t.Helper()
	for i := 0; i < 4; i++ {
		ecn := ecnPattern(i)
		for _, n := range ffBatchSizes {
			var acc, mk, dr int
			for k := 0; k < n; k++ {
				switch single(ecn) {
				case Accept:
					acc++
				case Mark:
					acc++
					mk++
				case Drop:
					dr++
				}
			}
			gotAcc, gotMk, gotDr := batch(ecn, n)
			if gotAcc != acc || gotMk != mk || gotDr != dr {
				t.Fatalf("step %d %v n=%d: FFDecideN = (%d, %d, %d), Enqueue twin (%d, %d, %d)",
					step, ecn, n, gotAcc, gotMk, gotDr, acc, mk, dr)
			}
			if a, b := singleRNG.Float64(), batchRNG.Float64(); a != b {
				t.Fatalf("step %d %v n=%d: next draw diverged: %v vs %v", step, ecn, n, a, b)
			}
			marks += gotMk
			drops += gotDr
		}
	}
	return marks, drops
}

func ecnPattern(i int) packet.ECN {
	switch i % 4 {
	case 0:
		return packet.NotECT
	case 1:
		return packet.ECT0
	case 2:
		return packet.ECT1
	default:
		return packet.CE
	}
}

// delayPattern is a deterministic qdelay walk around the 20 ms target,
// including idle (0) stretches to exercise decay/burst re-arm paths.
func delayPattern(step int) time.Duration {
	seq := []time.Duration{
		25 * time.Millisecond, 40 * time.Millisecond, 18 * time.Millisecond,
		5 * time.Millisecond, 0, 0, 30 * time.Millisecond, 300 * time.Millisecond,
		22 * time.Millisecond, 21 * time.Millisecond,
	}
	return seq[step%len(seq)]
}

func TestPIFastForwardTwinEquivalence(t *testing.T) {
	seed := int64(7)
	pkt := NewPI(PIConfig{ECN: true}, rand.New(rand.NewSource(seed)))
	ff := NewPI(PIConfig{ECN: true}, rand.New(rand.NewSource(seed)))
	q := &fakeQueue{}
	for step := 0; step < 200; step++ {
		qd := delayPattern(step)
		q.sojourn = qd
		pkt.Update(q, 0)
		ff.FFUpdate(qd)
		if pkt.DropProbability() != ff.DropProbability() {
			t.Fatalf("step %d: p diverged: %g vs %g", step, pkt.DropProbability(), ff.DropProbability())
		}
		for i := 0; i < 7; i++ {
			ecn := ecnPattern(i)
			vp := pkt.Enqueue(packet.NewData(1, 0, packet.MSS, ecn), q, 0)
			vf := verdictOf(ff.FFDecideN(ecn, 0, 1))
			if vp != vf {
				t.Fatalf("step %d pkt %d: verdict diverged: %v vs %v", step, i, vp, vf)
			}
		}
	}
}

func TestPIEFastForwardTwinEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*PIEConfig)
	}{
		{"default-sojourn", func(c *PIEConfig) {}},
		{"ecn", func(c *PIEConfig) { c.ECN = true }},
		{"reworked", func(c *PIEConfig) {
			c.ECN = true
			c.ReworkedECN = true
		}},
		{"bare", func(c *PIEConfig) {
			bc := BarePIEConfig()
			bc.Estimator = EstimateBySojourn
			*c = bc
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mkCfg := func() PIEConfig {
				// Sojourn estimation so Update(q) sees exactly the delay
				// FFUpdate is fed; EstimateByRate would need a live queue.
				cfg := DefaultPIEConfig()
				cfg.Estimator = EstimateBySojourn
				tc.mut(&cfg)
				return cfg
			}
			seed := int64(11)
			pkt := NewPIE(mkCfg(), rand.New(rand.NewSource(seed)))
			ff := NewPIE(mkCfg(), rand.New(rand.NewSource(seed)))
			q := &fakeQueue{bytes: 60 * packet.FullLen}
			for step := 0; step < 300; step++ {
				qd := delayPattern(step)
				q.sojourn = qd
				pkt.Update(q, 0)
				ff.FFUpdate(qd)
				if pkt.DropProbability() != ff.DropProbability() {
					t.Fatalf("step %d: p diverged: %g vs %g",
						step, pkt.DropProbability(), ff.DropProbability())
				}
				if pkt.QDelay() != ff.QDelay() {
					t.Fatalf("step %d: qdelay state diverged", step)
				}
				for i := 0; i < 7; i++ {
					ecn := ecnPattern(i)
					vp := pkt.Enqueue(packet.NewData(1, 0, packet.MSS, ecn), q, 0)
					vf := verdictOf(ff.FFDecideN(ecn, q.bytes, 1))
					if vp != vf {
						t.Fatalf("step %d pkt %d: verdict diverged: %v vs %v", step, i, vp, vf)
					}
				}
			}
		})
	}
}

// TestPIFFDecideNMatchesEnqueue: PI's batch decision makes the draws n
// Enqueue calls make, with and without ECN.
func TestPIFFDecideNMatchesEnqueue(t *testing.T) {
	for _, ecnOn := range []bool{false, true} {
		cfg := PIConfig{ECN: ecnOn}
		single := NewPI(cfg, rand.New(rand.NewSource(3)))
		batch := NewPI(cfg, rand.New(rand.NewSource(3)))
		q := &fakeQueue{}
		var marks, drops int
		for step := 0; step < 60; step++ {
			q.sojourn = delayPattern(step)
			single.Update(q, 0)
			batch.Update(q, 0)
			m, d := checkDecideN(t, step,
				func(ecn packet.ECN) Verdict {
					return single.Enqueue(packet.NewData(1, 0, packet.MSS, ecn), q, 0)
				},
				func(ecn packet.ECN, n int) (int, int, int) {
					return batch.FFDecideN(ecn, 0, n)
				},
				&single.rng, &batch.rng)
			marks += m
			drops += d
		}
		if drops == 0 || (ecnOn && marks == 0) {
			t.Fatalf("ECN=%v: draws not exercised: %d marks, %d drops", ecnOn, marks, drops)
		}
	}
}

// TestPIEFFDecideNMatchesEnqueue: PIE's batch decision makes the draws n
// Enqueue calls make with each drop_early gate switched on in turn, so the
// gates' state (the burst allowance) evolves identically too.
func TestPIEFFDecideNMatchesEnqueue(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*PIEConfig)
	}{
		{"bare", func(c *PIEConfig) {}},
		{"burst-allowance", func(c *PIEConfig) { c.BurstAllowance = 100 * time.Millisecond }},
		{"min-backlog", func(c *PIEConfig) { c.MinBacklog = 2 * packet.FullLen }},
		{"suppress", func(c *PIEConfig) { c.Suppress = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := BarePIEConfig()
			cfg.Estimator = EstimateBySojourn
			cfg.ECN = true
			tc.mut(&cfg)
			single := NewPIE(cfg, rand.New(rand.NewSource(5)))
			batch := NewPIE(cfg, rand.New(rand.NewSource(5)))
			q := &fakeQueue{}
			var marks, drops int
			for step := 0; step < 120; step++ {
				// The walk, interleaved with sustained 100 ms stretches that
				// outlast the burst allowance and lift p past the ECN
				// threshold.
				q.sojourn = delayPattern(step)
				if step/20%2 == 1 {
					q.sojourn = 100 * time.Millisecond
				}
				// Alternate a tiny and a deep backlog so MinBacklog both
				// exempts and admits.
				q.bytes = packet.FullLen
				if step%3 != 0 {
					q.bytes = 60 * packet.FullLen
				}
				single.Update(q, 0)
				batch.Update(q, 0)
				m, d := checkDecideN(t, step,
					func(ecn packet.ECN) Verdict {
						return single.Enqueue(packet.NewData(1, 0, packet.MSS, ecn), q, 0)
					},
					func(ecn packet.ECN, n int) (int, int, int) {
						return batch.FFDecideN(ecn, q.bytes, n)
					},
					&single.rng, &batch.rng)
				if single.burst != batch.burst {
					t.Fatalf("step %d: gate state diverged: burst %v vs %v",
						step, single.burst, batch.burst)
				}
				marks += m
				drops += d
			}
			if marks == 0 || drops == 0 {
				t.Fatalf("draws not exercised: %d marks, %d drops", marks, drops)
			}
		})
	}
}

// TestDepartRateFFShift checks a shift in the middle of a measurement cycle
// yields the same rate as an unshifted twin whose dequeues happened at the
// translated times: elapsed time within the cycle is preserved.
func TestDepartRateFFShift(t *testing.T) {
	const delta = 10 * time.Second
	var a, b DepartRateEstimator
	backlog := 4 * DefaultDQThreshold
	// Twin a: plain cycle. Twin b: identical, but the clock jumps by delta
	// mid-cycle and FFShift translates the cycle start.
	a.OnDequeue(packet.FullLen, backlog, 100*time.Millisecond)
	b.OnDequeue(packet.FullLen, backlog, 100*time.Millisecond)
	b.FFShift(delta)
	for now := 101 * time.Millisecond; ; now += time.Millisecond {
		a.OnDequeue(DefaultDQThreshold/4, backlog, now)
		b.OnDequeue(DefaultDQThreshold/4, backlog, now+delta)
		if ra, ok := a.RateBps(); ok {
			rb, okb := b.RateBps()
			if !okb || ra != rb {
				t.Fatalf("rates diverged: %g (ok) vs %g (%v)", ra, rb, okb)
			}
			return
		}
		if now > time.Second {
			t.Fatal("cycle never completed")
		}
	}
}

// TestFFShiftOutsideCycleIsNoop ensures a shift with no cycle in progress
// leaves the estimator untouched.
func TestFFShiftOutsideCycleIsNoop(t *testing.T) {
	var d DepartRateEstimator
	d.FFShift(5 * time.Second)
	if d.inCycle || d.start != 0 {
		t.Fatalf("mutated: %+v", d)
	}
}

func TestFFTargets(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if got := NewPI(PIConfig{}, rng).FFTarget(); got != 20*time.Millisecond {
		t.Fatalf("PI target = %v", got)
	}
	if got := NewPIE(DefaultPIEConfig(), rng).FFTarget(); got != 20*time.Millisecond {
		t.Fatalf("PIE target = %v", got)
	}
}
