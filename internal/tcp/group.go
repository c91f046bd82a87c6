package tcp

import (
	"fmt"
	"time"

	"pi2/internal/packet"
	"pi2/internal/sim"
)

// A Group is a run of flows built together. They share a simulator, an
// enqueuer and a base RTT, so their ACKs ride one lane, and their per-flow
// state comes from a few per-group slabs: the endpoints, the congestion
// controls that carry state, each flow's first sender ring and its first
// out-of-order buffer. The ACK-arrival and data-delivery callbacks are bound
// once per group and find their flow by FlowID; the RTO callback is the only
// one bound per flow, because a timer event carries no argument to route by
// (and so is the delayed-ACK callback, for the AckEvery > 1 flows that bind
// it).
type Group struct {
	// Flows are the group's endpoints, flow i with ID first+i*step. The
	// slice is never appended to, so &Flows[i] stays valid for the run.
	Flows []Endpoint

	first, step int
	pool        *packet.Pool

	// lane carries the group's in-flight ACKs (sent, not yet arrived at the
	// sender), each in the ring slot of its arrival event. The reverse path
	// is a fixed delay, so arrivals keep send order and every flow with that
	// delay shares the one lane: ackDelay is the whole BaseRTT classically,
	// or zero under SplitPropagation (both one-way legs are then charged on
	// the cross-domain wires).
	lane     *sim.Lane
	ackDelay time.Duration
	// arrive is ackArrive bound once; every ACK event of the group runs it.
	arrive sim.Event

	// ooo holds each flow's first out-of-order buffer, oooSlot entries per
	// flow, made when the group's first segment arrives out of order.
	ooo []int64
}

// Slot sizes of the per-flow buffers carved from a group's slabs; a flow
// that outgrows its slot moves to the heap. IW10 slow start passes 16
// outstanding segments in its second round trip, so a 32-segment ring saves
// that growth too; a finite flow's ring is never longer than the flow. Both
// sizes were chosen on the benchmark's heavy cells: a 64-segment ring or a
// 32-entry out-of-order slot saves a few more allocations but raises the
// bytes allocated at 5 000 flows.
const (
	ringSlot = 32
	oooSlot  = 16
)

// NewGroup builds n flows on s that send through enqueue. Flow i is cfg
// with ID cfg.ID+i*step and the congestion control ccs[i%len(ccs)] names
// (NewCC's names) under the ECN-feedback arm feedback (NewCCFeedback);
// cfg.CC and cfg.ECN are ignored. Register Group.DeliverData for every id
// and call each flow's Start to begin transmitting.
func NewGroup(s *sim.Simulator, enqueue Enqueuer, cfg Config, n, step int, feedback string, ccs ...string) (*Group, error) {
	if len(ccs) == 0 {
		return nil, fmt.Errorf("tcp: a group needs a congestion control")
	}
	var count [numKinds]int
	for j, name := range ccs {
		c, ok := controls[name]
		if !ok {
			return nil, fmt.Errorf("tcp: unknown congestion control %q", name)
		}
		if _, err := feedbackMode(c.mode, feedback); err != nil {
			return nil, err
		}
		count[c.kind] += (n - j + len(ccs) - 1) / len(ccs) // flows j, j+len(ccs), …
	}
	slab := newCCSlab(count)
	return newGroup(s, enqueue, cfg, n, step, func(i int) (CongestionControl, ECNMode) {
		c := controls[ccs[i%len(ccs)]]
		mode, _ := feedbackMode(c.mode, feedback)
		return slab.take(c.kind), mode
	}), nil
}

// NewWithEnqueuer creates an endpoint that transmits through an arbitrary
// bottleneck ingress: a group of one running cfg.CC. Call Start to begin
// transmitting.
func NewWithEnqueuer(s *sim.Simulator, enqueue Enqueuer, cfg Config) *Endpoint {
	if cfg.CC == nil {
		panic("tcp: Config.CC is required")
	}
	g := newGroup(s, enqueue, cfg, 1, 1, func(int) (CongestionControl, ECNMode) { return cfg.CC, cfg.ECN })
	return &g.Flows[0]
}

// newGroup is the one construction path: flow i runs the control and ECN
// mode cc(i) returns.
func newGroup(s *sim.Simulator, enqueue Enqueuer, cfg Config, n, step int, cc func(i int) (CongestionControl, ECNMode)) *Group {
	if enqueue == nil {
		panic("tcp: enqueue is required")
	}
	if step < 1 {
		panic(fmt.Sprintf("tcp: flow id step %d", step))
	}
	if cfg.AckEvery <= 0 {
		cfg.AckEvery = 1
	}
	g := &Group{Flows: make([]Endpoint, n), first: cfg.ID, step: step, pool: s.PacketPool()}
	if !cfg.SplitPropagation {
		g.ackDelay = cfg.BaseRTT
	}
	g.lane = s.Lane(g.ackDelay)
	g.arrive = g.ackArrive
	slot := ringSlot
	if cfg.FlowSegs > 0 {
		for slot/2 >= int(min(cfg.FlowSegs, ringSlot)) {
			slot /= 2
		}
	}
	rings := make([]segMeta, n*slot)
	for i := range g.Flows {
		c := cfg
		c.ID = cfg.ID + i*step
		c.CC, c.ECN = cc(i)
		g.Flows[i].init(s, enqueue, g, c, rings[i*slot:(i+1)*slot:(i+1)*slot])
	}
	return g
}

// flow returns the group's endpoint for a flow id. It runs twice per
// packet, so it skips the division where ids are consecutive.
func (g *Group) flow(id int) *Endpoint {
	i := id - g.first
	if g.step > 1 {
		i /= g.step
	}
	return &g.Flows[i]
}

// DeliverData hands a data segment to its flow's receiver
// (Endpoint.DeliverData): the one delivery callback a dispatcher needs for
// every id in the group.
func (g *Group) DeliverData(p *packet.Packet) {
	e := g.flow(p.FlowID)
	if e.cfg.ID != p.FlowID {
		panic(fmt.Sprintf("tcp: flow %d is not in the group of flows %d+%d·i", p.FlowID, g.first, g.step))
	}
	e.DeliverData(p)
}

// ackArrive delivers the ACK its lane event carries to its sender and
// recycles it.
func (g *Group) ackArrive() {
	p := g.lane.Packet()
	g.flow(p.FlowID).onAck(p)
	g.pool.Release(p)
}

// oooBuf returns e's first out-of-order buffer: an empty slot of the group's
// slab, capped so that growing past it moves the buffer to the heap.
func (g *Group) oooBuf(e *Endpoint) []int64 {
	if g.ooo == nil {
		g.ooo = make([]int64, len(g.Flows)*oooSlot)
	}
	i := (e.cfg.ID - g.first) / g.step * oooSlot
	return g.ooo[i : i : i+oooSlot]
}
