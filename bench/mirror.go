package main

import (
	"time"

	"pi2/internal/core"
	"pi2/internal/link"
	"pi2/internal/packet"
	"pi2/internal/sim"
	"pi2/internal/stats"
	"pi2/internal/tcp"
)

// The mirror cells are the production 1k-flow heavy cells assembled by hand
// from the same public constructors, in the same order, as
// experiments.runHeavyCell (via experiments.Run) and experiments.runHeavyDual
// use — which lets the bench interpose on the two boundaries a caller can
// reach: the endpoints' Enqueuer (→ Link.Enqueue / DualLink.Enqueue) and the
// bottleneck's deliver callback (→ Dispatcher → Endpoint.DeliverData). The
// layer pass checks that a mirror processes exactly as many events as the
// production cell with the same seed; if that ever drifts, the spans stop
// describing the program the end-to-end numbers came from, and a check fails.

const (
	heavyPerFlowBps = 2e6
	heavyRTT        = 10 * time.Millisecond
	heavyTarget     = 20 * time.Millisecond
)

// span is one aggregated trace span: every call through a boundary, summed.
type span struct {
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	Count   int64  `json:"count"`
	TotalNs int64  `json:"total_ns"`
	SelfNs  int64  `json:"self_ns"`
}

// mirrorOut is what one mirror run yields: its event count and wall time,
// the counters only a hand-assembled cell can reach, and — when traced — the
// spans, with cell.run first.
type mirrorOut struct {
	events uint64
	wall   time.Duration
	spans  []span

	enqueues, marks, drops int // link.Link only, over the measurement window
	retx, congEvents, rtos int
	poolNews               uint64
	problem                string // auditor report, "" when clean
}

// boundary wraps the two interposable calls with spans when traced.
type boundary struct {
	traced  bool
	enqueue span
	deliver span
}

func (b *boundary) wrap(sp *span, fn func(*packet.Packet)) func(*packet.Packet) {
	if !b.traced {
		return fn
	}
	return func(p *packet.Packet) {
		t0 := time.Now()
		fn(p)
		sp.TotalNs += time.Since(t0).Nanoseconds()
		sp.Count++
	}
}

// run times the event loop and closes the spans: neither boundary calls the
// other, so each is its own self time and the loop's self time is the rest —
// the scheduler plus everything the callbacks do outside the two calls.
func (b *boundary) run(s *sim.Simulator, dur time.Duration, out *mirrorOut) {
	t0 := time.Now()
	s.RunUntil(dur)
	out.wall = time.Since(t0)
	out.events = s.Processed()
	out.poolNews = s.PacketPool().Stats().Allocated
	if b.traced {
		b.enqueue.SelfNs, b.deliver.SelfNs = b.enqueue.TotalNs, b.deliver.TotalNs
		total := out.wall.Nanoseconds()
		out.spans = []span{
			{Name: "cell.run", Count: 1, TotalNs: total, SelfNs: total - b.enqueue.TotalNs - b.deliver.TotalNs},
			b.enqueue, b.deliver,
		}
	}
}

func newBoundary(traced bool) *boundary {
	return &boundary{traced: traced,
		enqueue: span{Name: "link.enqueue", Parent: "cell.run"},
		deliver: span{Name: "tcp.deliver", Parent: "cell.run"}}
}

// heavyMix is the heavy tier's population: near-even reno/cubic/dctcp thirds.
func heavyMix(n int) []struct {
	cc    string
	count int
} {
	return []struct {
		cc    string
		count int
	}{{"reno", n / 3}, {"cubic", n / 3}, {"dctcp", n - 2*(n/3)}}
}

// heavyFlows builds the heavy population on s in flow-id order, each flow
// sending into enqueue and receiving through d; start begins a flow the way
// the cell being mirrored does.
func heavyFlows(s *sim.Simulator, d *link.Dispatcher, n int, enqueue tcp.Enqueuer, start func(*tcp.Endpoint)) []*tcp.Endpoint {
	flows := make([]*tcp.Endpoint, 0, n)
	for _, g := range heavyMix(n) {
		for i := 0; i < g.count; i++ {
			cc, mode, err := tcp.NewCC(g.cc)
			if err != nil {
				panic(err) // heavyMix only names registered controls
			}
			id := len(flows) + 1
			ep := tcp.NewWithEnqueuer(s, enqueue, tcp.Config{ID: id, CC: cc, ECN: mode, BaseRTT: heavyRTT})
			d.Register(id, ep.DeliverData)
			start(ep)
			flows = append(flows, ep)
		}
	}
	return flows
}

func (o *mirrorOut) countFlows(flows []*tcp.Endpoint) {
	for _, ep := range flows {
		o.retx += ep.Retransmissions()
		o.congEvents += ep.CongestionEvents()
		o.rtos += ep.RTOCount()
	}
}

// mirrorPI2 is the single-queue heavy cell: link.Link + core.PI2.
func mirrorPI2(seed int64, n int, dur time.Duration, traced bool) mirrorOut {
	b := newBoundary(traced)
	s := sim.New(seed)
	d := link.NewDispatcher()
	l := link.New(s, link.Config{
		RateBps: heavyPerFlowBps * float64(n),
		AQM:     core.New(core.Config{Target: heavyTarget}, s.RNG()),
		Sojourn: stats.NewDelayHistogram(),
	}, b.wrap(&b.deliver, d.Deliver))
	enqueue := b.wrap(&b.enqueue, l.Enqueue)

	// The scenario runner schedules each flow's Start as an event at t = 0.
	flows := heavyFlows(s, d, n, enqueue, func(ep *tcp.Endpoint) { s.At(0, ep.Start) })
	s.At(dur*2/5, func() {
		l.ResetStats()
		for _, ep := range flows {
			ep.Goodput.Reset(s.Now())
		}
	})
	// The runner's two samplers, bodies reduced to their reads: they fire
	// 1 + 10 times per simulated second and are part of the event count.
	var sink time.Duration
	s.Every(time.Second, func() {
		sink += l.QueueDelayNow()
		for _, ep := range flows {
			sink += time.Duration(ep.Goodput.Bytes())
		}
	})
	s.Every(100*time.Millisecond, func() { sink += l.QueueDelayNow() })

	var out mirrorOut
	b.run(s, dur, &out)
	out.enqueues, out.marks, out.drops = l.Enqueues(), l.Marks(), l.TotalDrops()
	out.countFlows(flows)
	out.problem = l.Audit().Err("mirror link")
	return out
}

// mirrorDual is the DualPI2 heavy cell: core.DualLink, both sojourn
// collectors pointed at one histogram.
func mirrorDual(seed int64, n int, dur time.Duration, traced bool) mirrorOut {
	b := newBoundary(traced)
	s := sim.New(seed)
	d := link.NewDispatcher()
	dual := core.NewDualLink(s, heavyPerFlowBps*float64(n), core.DualConfig{}, b.wrap(&b.deliver, d.Deliver))
	soj := stats.NewDelayHistogram()
	dual.LSojourn, dual.CSojourn = soj, soj
	enqueue := b.wrap(&b.enqueue, dual.Enqueue)

	// runHeavyDual starts each flow inline as it is built.
	flows := heavyFlows(s, d, n, enqueue, (*tcp.Endpoint).Start)
	s.At(dur*2/5, func() {
		for _, ep := range flows {
			ep.Goodput.Reset(s.Now())
		}
		soj.Reset()
	})

	var out mirrorOut
	b.run(s, dur, &out)
	out.countFlows(flows)
	out.problem = dual.Audit().Err("mirror duallink")
	return out
}
