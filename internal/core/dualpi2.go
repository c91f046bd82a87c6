package core

import (
	"math"
	"time"

	"pi2/internal/aqm"
	"pi2/internal/link"
	"pi2/internal/packet"
	"pi2/internal/sim"
	"pi2/internal/stats"
)

// DualConfig parametrizes the DualPI2 dual-queue coupled AQM — the paper's
// stated deployment goal (Section 7, refs [12][13]; later RFC 9332). It is
// an extension beyond the paper's own single-queue evaluation.
type DualConfig struct {
	// Config provides the coupled PI²/PI parameters (gains act on p′,
	// Classic probability is p′², Scalable coupled probability is k·p′).
	Config
	// LThreshMin/LThreshMax bound the L-queue native ramp: the marking
	// probability rises linearly from 0 at LThreshMin sojourn to 1 at
	// LThreshMax (defaults 1 ms and 2 ms). The applied L probability is
	// the maximum of the ramp and the coupled probability k·p′.
	LThreshMin, LThreshMax time.Duration
	// TShift is the time-shifted-FIFO scheduler bias: the L queue is
	// served unless the Classic head has waited TShift longer than the
	// L head (default 40 ms). This gives L near-priority without
	// starving C.
	TShift time.Duration
	// BufferPackets bounds the combined queue (default 40000).
	BufferPackets int
}

func (c *DualConfig) setDefaults() {
	c.Config.setDefaults()
	if c.LThreshMin == 0 {
		c.LThreshMin = time.Millisecond
	}
	if c.LThreshMax == 0 {
		c.LThreshMax = 2 * time.Millisecond
	}
	if c.TShift == 0 {
		c.TShift = 40 * time.Millisecond
	}
}

// DualLink is a bottleneck with the DualPI2 structure: a low-latency (L)
// queue for Scalable traffic and a Classic (C) queue, drained by the one
// link.Link transmitter under a time-shifted priority scheduler, with one PI
// controller coupling the congestion signals of both queues. The embedded
// Link owns the transmitter, buffer bound, counters, drops and auditor;
// DualLink is only the discipline.
type DualLink struct {
	*link.Link

	// LSojourn and CSojourn split the per-packet queuing delay by queue.
	// Exact samples by default; the heavy many-flow tier swaps in
	// constant-memory histograms (assign before the first enqueue).
	LSojourn, CSojourn stats.Quantiler // seconds

	cfg            DualConfig
	rng            aqm.Draws
	core           aqm.PICore
	lq, cq         link.Ring
	lMarks, cMarks int
}

// dualQueue is DualLink seen as its link.Queue; a distinct type keeps the
// discipline's methods off DualLink's exported method set.
type dualQueue DualLink

// NewDualLink creates a DualPI2 bottleneck of the given rate (bits/s).
func NewDualLink(s *sim.Simulator, rateBps float64, cfg DualConfig, deliver func(*packet.Packet)) *DualLink {
	cfg.setDefaults()
	d := &DualLink{
		LSojourn: &stats.Sample{},
		CSojourn: &stats.Sample{},
		cfg:      cfg,
		rng:      aqm.NewDraws(s.RNG()),
		core: aqm.PICore{
			Alpha:  cfg.Alpha,
			Beta:   cfg.Beta,
			Target: cfg.Target,
			PMax:   pMaxFor(cfg.MaxClassicProb),
		},
	}
	d.Link = link.NewWithQueue(s, link.Config{RateBps: rateBps, BufferPackets: cfg.BufferPackets},
		(*dualQueue)(d), deliver)
	// The PI law runs on the older of the two heads, so the controller
	// keeps working when only one kind of traffic is present.
	s.Every(aqm.Tupdate, func() { d.core.Update(d.HeadSojourn(s.Now())) })
	return d
}

func pMaxFor(maxClassic float64) float64 {
	// p′ is capped so p′² never exceeds the Classic cap.
	if maxClassic >= 1 {
		return 1
	}
	return math.Sqrt(maxClassic)
}

// PPrime returns the coupled controller's internal variable p′.
func (d *DualLink) PPrime() float64 { return d.core.P() }

// Marks returns the CE marks applied to the L and C queues respectively,
// since the link was created.
func (d *DualLink) Marks() (l, c int) { return d.lMarks, d.cMarks }

// Admit classifies p: Classic packets face the squared probability here;
// L-queue packets are marked at dequeue (so the mark reflects the delay
// actually experienced). The queue is chosen before any CE mark, which
// would make a Classic packet look Scalable.
func (q *dualQueue) Admit(_ *link.Link, p *packet.Packet, _ time.Duration) aqm.Verdict {
	if p.ECN.Scalable() {
		q.lq.Push(p)
		return aqm.Accept
	}
	v := aqm.Accept
	if q.rng.SquaredHits(q.core.P(), 1) > 0 {
		if p.ECN != packet.ECT0 {
			return aqm.Drop
		}
		v = aqm.Mark
		q.cMarks++
	}
	q.cq.Push(p)
	return v
}

// Next serves L unless the C head is TShift older, applying the coupled or
// native L mark, whichever is stronger.
func (q *dualQueue) Next(_ *link.Link, now time.Duration) (*packet.Packet, aqm.Verdict) {
	if q.lq.Len() == 0 || q.cq.Len() > 0 && q.lq.HeadSojourn(now)+q.cfg.TShift < q.cq.HeadSojourn(now) {
		p := q.cq.Pop()
		q.CSojourn.Add((now - p.EnqueuedAt).Seconds())
		return p, aqm.Accept
	}
	p := q.lq.Pop()
	sojourn := now - p.EnqueuedAt
	q.LSojourn.Add(sojourn.Seconds())
	if q.rng.Hits(max(q.cfg.K*q.core.P(), q.rampProb(sojourn)), 1) > 0 {
		q.lMarks++
		return p, aqm.Mark
	}
	return p, aqm.Accept
}

// rampProb is the L queue's native AQM: linear ramp on sojourn time.
func (q *dualQueue) rampProb(sojourn time.Duration) float64 {
	if sojourn <= q.cfg.LThreshMin {
		return 0
	}
	if sojourn >= q.cfg.LThreshMax {
		return 1
	}
	return float64(sojourn-q.cfg.LThreshMin) / float64(q.cfg.LThreshMax-q.cfg.LThreshMin)
}

func (q *dualQueue) Len() int   { return q.lq.Len() + q.cq.Len() }
func (q *dualQueue) Bytes() int { return q.lq.Bytes() + q.cq.Bytes() }

// HeadSojourn is the older of the two heads' sojourns.
func (q *dualQueue) HeadSojourn(now time.Duration) time.Duration {
	return max(q.lq.HeadSojourn(now), q.cq.HeadSojourn(now))
}

func (q *dualQueue) Shift(delta time.Duration) {
	q.lq.Shift(delta)
	q.cq.Shift(delta)
}
