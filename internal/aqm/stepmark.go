package aqm

import (
	"time"

	"pi2/internal/packet"
)

// StepMarkConfig parametrizes the step-threshold marker DCTCP was designed
// for: every ECN-capable packet is CE-marked while the queuing delay
// exceeds Threshold. Appendix A derives W = 2/p² for DCTCP under this
// on-off marking (equation (12)) versus W = 2/p under probabilistic
// marking (equation (11)) — the contrast that motivates driving Scalable
// traffic from the PI controller's evenly distributed marks.
type StepMarkConfig struct {
	// Threshold is the marking step (default 1 ms).
	Threshold time.Duration
	// Estimator selects delay measurement (default head sojourn).
	Estimator DelayEstimator
}

// StepMark is the step-threshold marking AQM.
type StepMark struct {
	cfg   StepMarkConfig
	marks int
}

// NewStepMark builds a step marker.
func NewStepMark(cfg StepMarkConfig) *StepMark {
	if cfg.Threshold == 0 {
		cfg.Threshold = time.Millisecond
	}
	return &StepMark{cfg: cfg}
}

// Name implements AQM.
func (s *StepMark) Name() string { return "step" }

// Enqueue implements AQM: mark ECN-capable packets above the step;
// Not-ECT packets are never dropped (rely on the buffer limit).
func (s *StepMark) Enqueue(p *packet.Packet, q QueueInfo, now time.Duration) Verdict {
	if !p.ECN.ECNCapable() {
		return Accept
	}
	if EstimateDelay(s.cfg.Estimator, q, nil, now) > s.cfg.Threshold {
		s.marks++
		return Mark
	}
	return Accept
}

// Marks returns the total marks applied.
func (s *StepMark) Marks() int { return s.marks }

// Dequeue implements AQM.
func (s *StepMark) Dequeue(*packet.Packet, QueueInfo, time.Duration) {}

// UpdateInterval implements AQM.
func (s *StepMark) UpdateInterval() time.Duration { return 0 }

// Update implements AQM.
func (s *StepMark) Update(QueueInfo, time.Duration) {}
