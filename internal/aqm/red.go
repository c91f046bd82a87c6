package aqm

import (
	"math/rand"
	"time"

	"pi2/internal/packet"
)

// REDConfig parametrizes Random Early Detection (Floyd & Jacobson), the
// classical AQM the PI line of work descends from; it serves as a baseline.
// Thresholds are in bytes of average queue.
type REDConfig struct {
	// MinThresh and MaxThresh bound the probabilistic-drop region.
	MinThresh, MaxThresh int
	// ECN marks ECN-capable packets instead of dropping.
	ECN bool
}

const (
	// redMaxP is the drop probability at MaxThresh.
	redMaxP = 0.1
	// redWq is the EWMA weight for the average queue.
	redWq = 0.002
)

// RED is the Random Early Detection AQM.
type RED struct {
	cfg REDConfig
	rng Draws

	avg       float64
	count     int // packets since last drop, for the uniform-spacing trick
	idleSince time.Duration
	idle      bool
	lastP     float64
}

// NewRED builds a RED instance.
func NewRED(cfg REDConfig, rng *rand.Rand) *RED {
	if cfg.MinThresh == 0 {
		cfg.MinThresh = 5 * packet.FullLen
	}
	if cfg.MaxThresh == 0 {
		cfg.MaxThresh = 15 * packet.FullLen
	}
	return &RED{cfg: cfg, rng: NewDraws(rng), count: -1}
}

// Name implements AQM.
func (r *RED) Name() string { return "red" }

// DropProbability implements ProbabilityReporter (last computed pb).
func (r *RED) DropProbability() float64 { return r.lastP }

// Enqueue implements AQM.
func (r *RED) Enqueue(p *packet.Packet, q QueueInfo, now time.Duration) Verdict {
	backlog := q.BacklogBytes()
	if r.idle {
		// Decay the average across the idle period as if m small packets
		// had been served.
		cap := q.CapacityBps()
		if cap > 0 {
			m := (now - r.idleSince).Seconds() * cap / 8 / float64(packet.FullLen)
			for i := 0; float64(i) < m && r.avg > 0; i++ {
				r.avg *= 1 - redWq
			}
		}
		r.idle = false
	}
	r.avg = (1-redWq)*r.avg + redWq*float64(backlog)

	var pb float64
	switch {
	case r.avg < float64(r.cfg.MinThresh):
		r.count = -1
		r.lastP = 0
		return Accept
	case r.avg >= float64(r.cfg.MaxThresh):
		r.count = 0
		r.lastP = 1
		return r.signal(p)
	default:
		pb = redMaxP * (r.avg - float64(r.cfg.MinThresh)) /
			float64(r.cfg.MaxThresh-r.cfg.MinThresh)
	}
	r.lastP = pb
	r.count++
	// Uniform spacing: pa = pb / (1 - count*pb).
	pa := pb / (1 - float64(r.count)*pb)
	if pa < 0 || pa >= 1 || r.rng.Hits(pa, 1) > 0 {
		r.count = 0
		return r.signal(p)
	}
	return Accept
}

func (r *RED) signal(p *packet.Packet) Verdict {
	if r.cfg.ECN && p.ECN.ECNCapable() {
		return Mark
	}
	return Drop
}

// Dequeue implements AQM; it tracks idle onset for the average decay.
func (r *RED) Dequeue(_ *packet.Packet, q QueueInfo, now time.Duration) {
	if q.BacklogBytes() == 0 {
		r.idle = true
		r.idleSince = now
	}
}

// UpdateInterval implements AQM.
func (r *RED) UpdateInterval() time.Duration { return 0 }

// Update implements AQM.
func (r *RED) Update(QueueInfo, time.Duration) {}
