package experiments

import (
	"time"

	"pi2/internal/campaign"
	"pi2/internal/core"
	"pi2/internal/faults"
	"pi2/internal/link"
	"pi2/internal/packet"
	"pi2/internal/sim"
	"pi2/internal/tcp"
	"pi2/internal/traffic"
)

// The DualPI2 and FQ-CoDel arms do not go through Run: they share a leaner
// cell shape — flows started inline rather than by a scheduled event,
// goodput reset at warm-up and no samplers. The goldens pin each cell's
// `events`, so that shape is part of the recorded experiment; runWired is
// its one assembler.

// cellSpec is what every wired cell needs besides its bottleneck.
type cellSpec struct {
	seed      int64
	watch     func(campaign.Canceler)
	mix       []traffic.BulkFlowSpec // flow IDs 1.. in mix order
	warm, dur time.Duration
}

// wiredCell is a finished run: its simulator and its flows in mix order.
type wiredCell struct {
	s     *sim.Simulator
	flows []*tcp.Endpoint
}

// runWired assembles one cell around bottleneck and runs it to completion.
// bottleneck builds the link on the cell's simulator in front of deliver
// and returns it plus what to reset at the warm-up boundary. A violated
// link invariant panics, failing the cell as Run does.
func runWired(c cellSpec, bottleneck func(s *sim.Simulator, deliver func(*packet.Packet)) (l *link.Link, atWarm func())) wiredCell {
	s := sim.New(c.seed)
	if c.watch != nil {
		c.watch(s)
	}
	d := link.NewDispatcher()
	l, atWarm := bottleneck(s, d.Deliver)
	enq := l.Enqueue
	n := 0
	for _, m := range c.mix {
		n += m.Count
	}
	flows := make([]*tcp.Endpoint, 0, n)
	for _, m := range c.mix {
		for i := 0; i < m.Count; i++ {
			id := len(flows) + 1
			ep := traffic.NewBulk(s, enq, id, m, false)
			d.Register(id, ep.DeliverData)
			ep.Start()
			flows = append(flows, ep)
		}
	}
	s.At(c.warm, func() {
		now := s.Now()
		for _, ep := range flows {
			ep.Goodput.Reset(now)
		}
		atWarm()
	})
	s.RunUntil(c.dur)
	if msg := l.Audit().Err("bottleneck"); msg != "" {
		panic(msg)
	}
	return wiredCell{s: s, flows: flows}
}

// rates returns every flow's goodput over the measurement window, in mix
// order.
func (c wiredCell) rates() []float64 {
	now := c.s.Now()
	rates := make([]float64, len(c.flows))
	for i, ep := range c.flows {
		rates[i] = ep.Goodput.RateBps(now)
	}
	return rates
}

// dualCell is a wired cell around core.DualLink.
type dualCell struct {
	wiredCell
	dual *core.DualLink
	// inj is the impairment layer (nil without active impairments).
	inj *faults.Injector
}

// runDual runs a wired cell through DualPI2 with the scenario runner's
// impairment placement: the injector wraps the delivery callback after the
// bottleneck and the rate schedule drives the dual link's capacity. Like
// Run, it resets the link's statistics at the warm-up boundary, so marks,
// drops and utilization cover the same measurement window as a paired
// single-queue cell's. cfg's LSojourn and CSojourn choose the sojourn
// collectors.
func runDual(c cellSpec, rateBps float64, cfg core.DualConfig, impair *faults.Config) *dualCell {
	dc := &dualCell{}
	dc.wiredCell = runWired(c, func(s *sim.Simulator, deliver func(*packet.Packet)) (*link.Link, func()) {
		if impair != nil && impair.Active() {
			dc.inj = faults.NewInjector(s, *impair, deliver)
			deliver = dc.inj.Deliver
		}
		dual := core.NewDualLink(s, rateBps, cfg, deliver)
		if impair != nil && impair.Rate != nil {
			impair.Rate.Apply(s, dual)
		}
		dc.dual = dual
		return dual.Link, dual.ResetStats
	})
	return dc
}
