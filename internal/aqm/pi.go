package aqm

import (
	"math/rand"
	"time"

	"pi2/internal/packet"
)

// Tupdate is the control interval T of every PI-family controller (PI,
// PIE, PI2, DualPI2): 32 ms, as in the paper's figure captions.
const Tupdate = 32 * time.Millisecond

// PICore is the classical Proportional Integral control law of equation (4):
//
//	p(t) = p(t−T) + α·(τ(t)−τ0) + β·(τ(t)−τ(t−T))
//
// with gains α, β in Hz and queuing delay τ in seconds. It is shared by the
// plain PI AQM, PIE (which adds auto-tuning and heuristics around it) and
// PI2 (which post-processes its output). The controlled variable is clamped
// to [0, pMax].
type PICore struct {
	// Alpha is the integral gain in Hz.
	Alpha float64
	// Beta is the proportional gain in Hz.
	Beta float64
	// Target is the queuing-delay reference τ0.
	Target time.Duration
	// PMax clamps the controlled variable (1 if zero).
	PMax float64

	p         float64
	prevDelay time.Duration
}

// P returns the current value of the controlled variable.
func (c *PICore) P() float64 { return c.p }

// SetP overrides the controlled variable (used by PIE's decay heuristic).
func (c *PICore) SetP(p float64) { c.p = c.clamp(p) }

// PrevDelay returns the queue delay observed at the previous update.
func (c *PICore) PrevDelay() time.Duration { return c.prevDelay }

// Delta returns the raw control adjustment for the given delay observation
// without applying it (PIE scales it first).
func (c *PICore) Delta(qdelay time.Duration) float64 {
	return c.Alpha*(qdelay-c.Target).Seconds() + c.Beta*(qdelay-c.prevDelay).Seconds()
}

// Apply adds delta to the controlled variable, records qdelay as the new
// reference for the proportional term, and returns the clamped result.
func (c *PICore) Apply(delta float64, qdelay time.Duration) float64 {
	c.p = c.clamp(c.p + delta)
	c.prevDelay = qdelay
	return c.p
}

// Update performs one unscaled PI update (Delta + Apply).
func (c *PICore) Update(qdelay time.Duration) float64 {
	return c.Apply(c.Delta(qdelay), qdelay)
}

func (c *PICore) clamp(p float64) float64 {
	max := c.PMax
	if max == 0 {
		max = 1
	}
	switch {
	case p < 0:
		return 0
	case p > max:
		return max
	}
	return p
}

// DepartRateEstimator reproduces Linux PIE's dq_rate measurement: while at
// least Threshold bytes are backlogged, it accumulates departed bytes and
// divides by elapsed time at the end of each measurement cycle.
type DepartRateEstimator struct {
	// Threshold in bytes for starting a measurement cycle (16 KB default).
	Threshold int

	inCycle bool
	count   int
	start   time.Duration
	rateBps float64
	hasRate bool
}

// DefaultDQThreshold is Linux PIE's measurement threshold (16 KiB).
const DefaultDQThreshold = 16 * 1024

// OnDequeue feeds one departure into the estimator.
func (d *DepartRateEstimator) OnDequeue(bytes int, backlog int, now time.Duration) {
	th := d.Threshold
	if th == 0 {
		th = DefaultDQThreshold
	}
	if !d.inCycle {
		if backlog >= th {
			d.inCycle = true
			d.count = 0
			d.start = now
		}
		return
	}
	d.count += bytes
	if d.count >= th {
		el := (now - d.start).Seconds()
		if el > 0 {
			r := float64(d.count) * 8 / el
			if d.hasRate {
				// EWMA 1/2, as in Linux.
				d.rateBps = (d.rateBps + r) / 2
			} else {
				d.rateBps = r
				d.hasRate = true
			}
		}
		d.inCycle = false
	}
}

// RateBps returns the measured departure rate and whether it is valid yet.
func (d *DepartRateEstimator) RateBps() (float64, bool) { return d.rateBps, d.hasRate }

// EstimateDelay converts queue state to queuing delay using the selected
// estimator. rateEst may be nil unless est == EstimateByRate.
func EstimateDelay(est DelayEstimator, q QueueInfo, rateEst *DepartRateEstimator, now time.Duration) time.Duration {
	switch est {
	case EstimateByCapacity:
		c := q.CapacityBps()
		if c <= 0 {
			return 0
		}
		return time.Duration(float64(q.BacklogBytes()*8) / c * float64(time.Second))
	case EstimateByRate:
		if rateEst != nil {
			if r, ok := rateEst.RateBps(); ok && r > 0 {
				return time.Duration(float64(q.BacklogBytes()*8) / r * float64(time.Second))
			}
		}
		return 0
	default: // EstimateBySojourn
		return q.HeadSojourn(now)
	}
}

// PIConfig parametrizes the plain (non-tuned, linear) PI AQM — the 'pi'
// curve in Figure 6: the classical controller applying its output directly
// as the drop/mark probability, with fixed gains.
type PIConfig struct {
	// Alpha, Beta are the PI gains in Hz (defaults 0.125 and 1.25,
	// the PIE base gains).
	Alpha, Beta float64
	// Target queuing delay (default 20 ms, Table 1).
	Target time.Duration
	// Estimator selects delay measurement (default direct sojourn).
	Estimator DelayEstimator
	// ECN marks ECN-capable packets instead of dropping them.
	ECN bool
}

func (c *PIConfig) setDefaults() {
	if c.Alpha == 0 {
		c.Alpha = 0.125
	}
	if c.Beta == 0 {
		c.Beta = 1.25
	}
	if c.Target == 0 {
		c.Target = 20 * time.Millisecond
	}
}

// PI is the plain linear PI AQM.
type PI struct {
	cfg  PIConfig
	core PICore
	rate DepartRateEstimator
	rng  Draws
}

// NewPI builds a plain PI AQM with the given RNG stream.
func NewPI(cfg PIConfig, rng *rand.Rand) *PI {
	cfg.setDefaults()
	return &PI{
		cfg:  cfg,
		core: PICore{Alpha: cfg.Alpha, Beta: cfg.Beta, Target: cfg.Target},
		rng:  NewDraws(rng),
	}
}

// Name implements AQM.
func (pi *PI) Name() string { return "pi" }

// DropProbability implements ProbabilityReporter.
func (pi *PI) DropProbability() float64 { return pi.core.P() }

// Enqueue implements AQM: drop (or mark) with probability p.
func (pi *PI) Enqueue(p *packet.Packet, _ QueueInfo, _ time.Duration) Verdict {
	return VerdictOf(pi.decideN(p.ECN, 1))
}

// decideN is PI's decision for n packets of one ECN codepoint, one draw
// against p each. Enqueue makes it for one packet and FFDecideN for n, so
// packet mode and fast-forward mode share one RNG discipline.
func (pi *PI) decideN(ecn packet.ECN, n int) (marked, dropped int) {
	hits := pi.rng.Hits(pi.core.P(), n)
	if pi.cfg.ECN && ecn.ECNCapable() {
		return hits, 0
	}
	return 0, hits
}

// Dequeue implements AQM.
func (pi *PI) Dequeue(p *packet.Packet, q QueueInfo, now time.Duration) {
	if pi.cfg.Estimator == EstimateByRate {
		pi.rate.OnDequeue(int(p.WireLen), q.BacklogBytes(), now)
	}
}

// UpdateInterval implements AQM.
func (pi *PI) UpdateInterval() time.Duration { return Tupdate }

// Update implements AQM.
func (pi *PI) Update(q QueueInfo, now time.Duration) {
	pi.FFUpdate(EstimateDelay(pi.cfg.Estimator, q, &pi.rate, now))
}
