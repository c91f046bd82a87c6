// Package core implements the paper's contribution: the PI2 AQM — a plain
// linear PI controller on a pseudo-probability p′ whose output is squared
// into the Classic drop/mark probability (Figure 8) — and its coupled form
// that simultaneously supports Scalable congestion controls by applying p′
// directly (Figure 9), plus the DualPI2 dual-queue extension the paper
// names as the next step (Section 7; later standardized as RFC 9332).
//
// The controlled variable here is p′, the Classic pseudo-probability. The
// coupled Scalable marking probability is p_s = k·p′ and the Classic
// drop/mark probability is p_c = p′² = (p_s/k)², which is exactly the
// relation (14) the paper derives for equal steady-state rates between
// CReno and DCTCP. With the default k = 2, the Table 1 Scalable gains
// (α = 10/16, β = 100/16) acting on p_s are identical to the Classic gains
// (α = 5/16, β = 50/16) acting on p′.
package core

import (
	"math"
	"math/rand"
	"time"

	"pi2/internal/aqm"
	"pi2/internal/packet"
)

// Config parametrizes a PI2 AQM.
type Config struct {
	// Alpha, Beta are the PI gains in Hz acting on p′. Defaults are the
	// paper's 2.5×-PIE gains: α = 5/16 = 0.3125, β = 50/16 = 3.125
	// (Figure 6/7 captions), made possible by PI2's flat gain margin.
	Alpha, Beta float64
	// Target is the queuing-delay reference τ0 (default 20 ms, Table 1).
	Target time.Duration
	// K is the coupling factor between Scalable and Classic signalling
	// (default 2; the paper derives 1.19 analytically in (14) and
	// validates 2 empirically, which also doubles the Scalable gains for
	// optimal stability).
	K float64
	// MaxClassicProb caps the Classic drop/mark probability (default
	// 0.25, the paper's overload strategy replacing PIE's ECN-drop rule).
	// The equivalent Scalable cap (k·√0.25 = 100 % with k = 2) follows.
	MaxClassicProb float64
	// Estimator selects queue-delay measurement. The PI2 qdisc timestamps
	// packets, so the default is head-sojourn.
	Estimator aqm.DelayEstimator
	// UseMultiply applies the square by multiplying p′·p′ (the software
	// form) instead of comparing against the maximum of two random
	// variables (the hardware form). Both are provided for the ablation
	// bench; they are statistically identical.
	UseMultiply bool
}

func (c *Config) setDefaults() {
	if c.Alpha == 0 {
		c.Alpha = 5.0 / 16
	}
	if c.Beta == 0 {
		c.Beta = 50.0 / 16
	}
	if c.Target == 0 {
		c.Target = 20 * time.Millisecond
	}
	if c.K == 0 {
		c.K = 2
	}
	if c.MaxClassicProb == 0 {
		c.MaxClassicProb = 0.25
	}
}

// PI2 is the paper's AQM: PI control of a linear pseudo-probability p′,
// squared into the Classic congestion signal at the drop/mark decision, and
// applied directly (scaled by k) to Scalable packets. A single instance
// serves both Figure 8 (Classic-only traffic) and Figure 9 (coexistence):
// the per-packet ECN classifier picks the right decision.
type PI2 struct {
	cfg  Config
	core aqm.PICore
	rate aqm.DepartRateEstimator
	rng  aqm.Draws
}

// New builds a PI2 AQM with the given RNG stream.
func New(cfg Config, rng *rand.Rand) *PI2 {
	cfg.setDefaults()
	return &PI2{
		cfg: cfg,
		core: aqm.PICore{
			Alpha:  cfg.Alpha,
			Beta:   cfg.Beta,
			Target: cfg.Target,
			// p′ is capped so that p′² never exceeds the Classic cap.
			PMax: math.Sqrt(cfg.MaxClassicProb),
		},
		rng: aqm.NewDraws(rng),
	}
}

// Name implements aqm.AQM.
func (q2 *PI2) Name() string { return "pi2" }

// PPrime returns the internal linear pseudo-probability p′.
func (q2 *PI2) PPrime() float64 { return q2.core.P() }

// DropProbability implements aqm.ProbabilityReporter: the probability
// currently applied to Classic packets, p = p′².
func (q2 *PI2) DropProbability() float64 {
	p := q2.core.P()
	return p * p
}

// ScalableProbability implements aqm.ScalableReporter: p_s = min(k·p′, 1).
func (q2 *PI2) ScalableProbability() float64 {
	ps := q2.cfg.K * q2.core.P()
	if ps > 1 {
		return 1
	}
	return ps
}

// Enqueue implements aqm.AQM: the Figure 9 classifier and decision blocks.
func (q2 *PI2) Enqueue(p *packet.Packet, _ aqm.QueueInfo, _ time.Duration) Verdict {
	return aqm.VerdictOf(q2.decideN(p.ECN, 1))
}

// decideN is PI2's per-packet decision, made for n packets of one ECN
// codepoint; a hit drops a Not-ECT packet and marks any other. Scalable
// packets consume exactly one draw against k·p′ ("think once to mark").
// Classic packets take the squared probability: one draw against p′² under
// UseMultiply, or under the hardware form two draws both below p′
// (max(Y1,Y2) < p′), short-circuited after a first miss. Enqueue makes the
// decision for one packet and FFDecideN for n, so packet mode and
// fast-forward mode share one RNG discipline. Nothing moves p′ between the
// draws, so the probability is read once per call, not once per packet.
func (q2 *PI2) decideN(ecn packet.ECN, n int) (marked, dropped int) {
	var hits int
	switch p := q2.core.P(); {
	case ecn.Scalable():
		hits = q2.rng.Hits(q2.ScalableProbability(), n)
	case q2.cfg.UseMultiply:
		hits = q2.rng.Hits(p*p, n)
	default:
		hits = q2.rng.SquaredHits(p, n)
	}
	if ecn == packet.NotECT {
		return 0, hits
	}
	return hits, 0
}

// Verdict aliases aqm.Verdict for readability at call sites.
type Verdict = aqm.Verdict

// Dequeue implements aqm.AQM.
func (q2 *PI2) Dequeue(p *packet.Packet, q aqm.QueueInfo, now time.Duration) {
	if q2.cfg.Estimator == aqm.EstimateByRate {
		q2.rate.OnDequeue(int(p.WireLen), q.BacklogBytes(), now)
	}
}

// UpdateInterval implements aqm.AQM.
func (q2 *PI2) UpdateInterval() time.Duration { return aqm.Tupdate }

// Update implements aqm.AQM: one plain PI step — no auto-tuning, no
// heuristics; that is the point.
func (q2 *PI2) Update(q aqm.QueueInfo, now time.Duration) {
	q2.FFUpdate(aqm.EstimateDelay(q2.cfg.Estimator, q, &q2.rate, now))
}
