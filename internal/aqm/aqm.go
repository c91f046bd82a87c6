// Package aqm implements the Active Queue Management algorithms evaluated in
// the paper: Linux-style PIE (with every heuristic individually switchable),
// bare-PIE, the plain PI controller, PI2, and the RED / CoDel / tail-drop
// baselines. The coupled PI²+PI single-queue AQM — the paper's headline
// contribution — builds on this package and lives in internal/core.
//
// An AQM is attached to exactly one queue (see internal/link). The queue
// calls Enqueue for a verdict before admitting each packet, Dequeue as each
// packet leaves, and Update on the AQM's periodic timer.
package aqm

import (
	"time"

	"pi2/internal/packet"
)

// Verdict is an AQM's per-packet decision at enqueue time.
type Verdict int

const (
	// Accept admits the packet unchanged.
	Accept Verdict = iota
	// Mark admits the packet after rewriting its ECN field to CE.
	Mark
	// Drop discards the packet.
	Drop
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case Accept:
		return "accept"
	case Mark:
		return "mark"
	case Drop:
		return "drop"
	}
	return "invalid"
}

// VerdictOf folds a one-packet decision's mark and drop counts into its
// Verdict.
func VerdictOf(marked, dropped int) Verdict {
	switch {
	case dropped > 0:
		return Drop
	case marked > 0:
		return Mark
	}
	return Accept
}

// QueueInfo is the read-only view of queue state an AQM may consult.
type QueueInfo interface {
	// BacklogBytes is the queued byte count (not counting the packet
	// currently being serialized).
	BacklogBytes() int
	// BacklogPackets is the queued packet count.
	BacklogPackets() int
	// HeadSojourn returns how long the packet at the head of the queue has
	// been queued (0 when empty). CoDel-style direct delay measurement.
	HeadSojourn(now time.Duration) time.Duration
	// CapacityBps is the instantaneous link rate in bits/s, for AQMs that
	// convert backlog to delay directly.
	CapacityBps() float64
}

// AQM is a queue-management algorithm.
//
// Implementations are single-goroutine (the simulator is single-threaded)
// and must be deterministic given their RNG stream.
type AQM interface {
	// Name identifies the algorithm in reports.
	Name() string
	// Enqueue decides the fate of p before it is queued.
	Enqueue(p *packet.Packet, q QueueInfo, now time.Duration) Verdict
	// Dequeue observes p leaving the queue (PIE's departure-rate estimator
	// hooks in here). Implementations may be no-ops.
	Dequeue(p *packet.Packet, q QueueInfo, now time.Duration)
	// UpdateInterval is the period of the AQM's timer (0 = no timer).
	UpdateInterval() time.Duration
	// Update runs one periodic control-law update.
	Update(q QueueInfo, now time.Duration)
}

// ProbabilityReporter is implemented by AQMs whose control variable is a
// drop/mark probability; the harness samples it for Figure 17.
type ProbabilityReporter interface {
	// DropProbability returns the probability currently applied to Classic
	// (Not-ECT / ECT(0)) packets.
	DropProbability() float64
}

// ScalableReporter is implemented by coupled AQMs that additionally apply a
// separate marking probability to Scalable (ECT(1)) packets.
type ScalableReporter interface {
	// ScalableProbability returns the probability currently applied to
	// Scalable packets.
	ScalableProbability() float64
}

// DelayEstimator selects how an AQM converts queue state to queuing delay.
type DelayEstimator int

const (
	// EstimateBySojourn (the zero value, hence the default) uses the head
	// packet's time in queue (CoDel-style timestamping, which the PI2
	// qdisc uses).
	EstimateBySojourn DelayEstimator = iota
	// EstimateByRate divides backlog by a measured departure rate
	// (Linux PIE's dq_rate estimator; see Figure 3 "rate estimation").
	// PIE defaults to this via DefaultPIEConfig.
	EstimateByRate
	// EstimateByCapacity divides backlog by the configured link capacity
	// (idealized; useful in tests).
	EstimateByCapacity
)

// String implements fmt.Stringer.
func (d DelayEstimator) String() string {
	switch d {
	case EstimateByRate:
		return "rate"
	case EstimateBySojourn:
		return "sojourn"
	case EstimateByCapacity:
		return "capacity"
	}
	return "invalid"
}

// TailDrop is the no-AQM control: every packet is accepted (the queue's
// buffer limit still tail-drops on overflow).
type TailDrop struct{}

// Name implements AQM.
func (TailDrop) Name() string { return "taildrop" }

// Enqueue implements AQM; it always accepts.
func (TailDrop) Enqueue(*packet.Packet, QueueInfo, time.Duration) Verdict { return Accept }

// Dequeue implements AQM.
func (TailDrop) Dequeue(*packet.Packet, QueueInfo, time.Duration) {}

// UpdateInterval implements AQM.
func (TailDrop) UpdateInterval() time.Duration { return 0 }

// Update implements AQM.
func (TailDrop) Update(QueueInfo, time.Duration) {}
