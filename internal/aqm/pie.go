package aqm

import (
	"math/rand"
	"time"

	"pi2/internal/packet"
)

// AutoTuneFactor returns PIE's stepped gain-scaling factor for the current
// drop probability, per the extended lookup table in the IETF specification
// (draft-ietf-aqm-pie-10 / RFC 8033), which Figure 5 compares against
// √(2p). The returned value multiplies the raw PI adjustment ∆p.
func AutoTuneFactor(dropProb float64) float64 {
	switch {
	case dropProb < 0.000001:
		return 1.0 / 2048
	case dropProb < 0.00001:
		return 1.0 / 512
	case dropProb < 0.0001:
		return 1.0 / 128
	case dropProb < 0.001:
		return 1.0 / 32
	case dropProb < 0.01:
		return 1.0 / 8
	case dropProb < 0.1:
		return 1.0 / 2
	default:
		return 1
	}
}

// PIEConfig parametrizes PIE. Every heuristic the paper enumerates in
// Section 5 ("Fewer Heuristics") sits behind its own switch so that
// bare-PIE is expressible as BarePIEConfig and each heuristic can be
// ablated independently.
type PIEConfig struct {
	// Alpha, Beta are the base PI gains in Hz (Table 1: 2/16 and 20/16).
	Alpha, Beta float64
	// Target queuing delay (default 20 ms).
	Target time.Duration
	// Estimator selects delay measurement. Linux PIE measures departure
	// rate; DefaultPIEConfig sets EstimateByRate.
	Estimator DelayEstimator

	// AutoTune applies the stepped gain-scaling lookup table.
	AutoTune bool
	// BurstAllowance enables the initial-burst exemption window.
	BurstAllowance time.Duration // 0 disables; default 100 ms
	// Suppress enables "no drops while p < 20% and delay < target/2".
	Suppress bool
	// DeltaCap enables "∆p limited to 2% when p > 10%".
	DeltaCap bool
	// BigDropCap enables "∆p set to 2% when queue delay > 250 ms".
	BigDropCap bool
	// Decay enables the 2%-per-update decay of p while the queue is idle.
	Decay bool
	// MinBacklog exempts tiny queues (Linux: no drops below 2 MSS bytes).
	MinBacklog int

	// ECN marks ECN-capable packets instead of dropping them while p is
	// at most 10% (Linux's threshold); above it ECN packets are dropped.
	ECN bool
	// ReworkedECN replaces the threshold rule with the paper's overload
	// strategy: never drop ECN-capable packets; instead cap p at 25% and
	// let tail-drop handle overload.
	ReworkedECN bool
}

const (
	// pieMarkECNThreshold is the probability above which ECN packets are
	// dropped anyway (Linux PIE's 10%).
	pieMarkECNThreshold = 0.1
	// pieReworkedMaxProb caps p under ReworkedECN.
	pieReworkedMaxProb = 0.25
)

// DefaultPIEConfig returns the full Linux-style PIE used for the paper's
// PIE baseline (all heuristics on, departure-rate delay estimation).
func DefaultPIEConfig() PIEConfig {
	return PIEConfig{
		Alpha:          2.0 / 16,
		Beta:           20.0 / 16,
		Target:         20 * time.Millisecond,
		Estimator:      EstimateByRate,
		AutoTune:       true,
		BurstAllowance: 100 * time.Millisecond,
		Suppress:       true,
		DeltaCap:       true,
		BigDropCap:     true,
		Decay:          true,
		MinBacklog:     2 * packet.FullLen,
	}
}

// BarePIEConfig returns PIE with every extra heuristic disabled but the
// auto-tune gain scaling retained — the paper's "bare-PIE", which it found
// indistinguishable from full PIE in all experiments.
func BarePIEConfig() PIEConfig {
	c := DefaultPIEConfig()
	c.BurstAllowance = 0
	c.Suppress = false
	c.DeltaCap = false
	c.BigDropCap = false
	c.Decay = false
	c.MinBacklog = 0
	return c
}

// PIE is the Proportional Integral controller Enhanced AQM (Pan et al.),
// as implemented in Linux and specified by the IETF, with each heuristic
// individually switchable.
type PIE struct {
	cfg    PIEConfig
	core   PICore
	rate   DepartRateEstimator
	rng    Draws
	burst  time.Duration
	name   string
	qdelay time.Duration // last estimate, for Suppress and burst reset
}

// NewPIE builds a PIE instance.
func NewPIE(cfg PIEConfig, rng *rand.Rand) *PIE {
	if cfg.Alpha == 0 {
		cfg.Alpha = 2.0 / 16
	}
	if cfg.Beta == 0 {
		cfg.Beta = 20.0 / 16
	}
	if cfg.Target == 0 {
		cfg.Target = 20 * time.Millisecond
	}
	pmax := 1.0
	if cfg.ReworkedECN {
		pmax = pieReworkedMaxProb
	}
	name := "pie"
	if cfg.BurstAllowance == 0 && !cfg.Suppress && !cfg.DeltaCap &&
		!cfg.BigDropCap && !cfg.Decay && cfg.MinBacklog == 0 && cfg.AutoTune {
		name = "bare-pie"
	}
	return &PIE{
		cfg:   cfg,
		core:  PICore{Alpha: cfg.Alpha, Beta: cfg.Beta, Target: cfg.Target, PMax: pmax},
		rng:   NewDraws(rng),
		burst: cfg.BurstAllowance,
		name:  name,
	}
}

// Name implements AQM.
func (pe *PIE) Name() string { return pe.name }

// DropProbability implements ProbabilityReporter.
func (pe *PIE) DropProbability() float64 { return pe.core.P() }

// QDelay returns the AQM's own latest queue-delay estimate.
func (pe *PIE) QDelay() time.Duration { return pe.qdelay }

// Enqueue implements AQM: PIE's drop_early decision.
func (pe *PIE) Enqueue(p *packet.Packet, q QueueInfo, now time.Duration) Verdict {
	return VerdictOf(pe.decideN(p.ECN, q.BacklogBytes(), 1))
}

// decideN is PIE's drop_early decision for n packets of one ECN codepoint
// and backlog, every heuristic gate included. Nothing moves the gates or p
// between the packets, so either all n pass the gates and draw, or none
// does. Enqueue makes it for one packet and FFDecideN for n, so packet mode
// and fast-forward mode share one RNG discipline.
func (pe *PIE) decideN(ecn packet.ECN, backlogBytes, n int) (marked, dropped int) {
	prob := pe.core.P()
	if pe.burst > 0 ||
		pe.cfg.Suppress && pe.qdelay < pe.cfg.Target/2 && prob < 0.2 ||
		pe.cfg.MinBacklog > 0 && backlogBytes <= pe.cfg.MinBacklog {
		return 0, 0
	}
	hits := pe.rng.Hits(prob, n)
	if pe.cfg.ECN && ecn.ECNCapable() && (pe.cfg.ReworkedECN || prob <= pieMarkECNThreshold) {
		return hits, 0
	}
	return 0, hits
}

// Dequeue implements AQM; it feeds the departure-rate estimator.
func (pe *PIE) Dequeue(p *packet.Packet, q QueueInfo, now time.Duration) {
	if pe.cfg.Estimator == EstimateByRate {
		pe.rate.OnDequeue(int(p.WireLen), q.BacklogBytes(), now)
	}
}

// UpdateInterval implements AQM.
func (pe *PIE) UpdateInterval() time.Duration { return Tupdate }

// Update implements AQM: one control-law step with PIE's scaling and caps
// (the pipeline itself lives in FFUpdate, fed by the configured estimator).
func (pe *PIE) Update(q QueueInfo, now time.Duration) {
	pe.FFUpdate(EstimateDelay(pe.cfg.Estimator, q, &pe.rate, now))
}
