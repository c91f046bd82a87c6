package tcp

import (
	"fmt"
	"time"

	"pi2/internal/packet"
	"pi2/internal/sim"
)

// A Group is a run of flows built together. What they share (simulator and
// through it the packet pool, enqueuer, Config, and so one ACK lane and one
// timer route) is held once here, and their per-flow state comes from a few
// per-group slabs: the senders (Flows), the receivers, the stateful
// congestion controls, each flow's first sender ring and its first
// out-of-order buffer. A group of one holds its sender, receiver and first
// ring in the same allocation as the Group. No callback is bound per flow:
// the ACK-arrival and data-delivery callbacks are bound once per group and
// find their flow by FlowID, and the retransmission and delayed-ACK timers
// run through the group's one simulator route, which hands them their
// flow's slab index.
type Group struct {
	// Flows are the group's endpoints, flow i with ID cfg.ID+i*step. The
	// slice is never appended to, so &Flows[i] stays valid for the run.
	Flows []Endpoint
	// rcv holds the flows' receivers, rcv[i] being Flows[i]'s.
	rcv []receiver

	sim     *sim.Simulator
	enqueue Enqueuer
	// cfg is what the group's flows share: every field but CC and ECN,
	// with ID the first flow's and AckEvery at least 1.
	cfg  Config
	step int

	// lane carries the group's in-flight ACKs (sent, not yet arrived at the
	// sender), each in the ring slot of its arrival event. The reverse path
	// is a fixed delay (ackDelay), so arrivals keep send order and every
	// flow with that delay shares the one lane.
	lane *sim.Lane
	// arrive is ackArrive bound once; every ACK event of the group runs it.
	arrive sim.Event
	// timers is the route of the flows' timer events (see groupTimers);
	// it is closed, and zero, once every flow has completed.
	timers sim.Route
	// done counts the flows that have completed.
	done int32

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
	cfg.CC, cfg.ECN = nil, ECNOff
	slot := ringSlot
	if cfg.FlowSegs > 0 {
		for slot/2 >= int(min(cfg.FlowSegs, ringSlot)) {
			slot /= 2
		}
	}
	var g *Group
	var rings []segMeta
	if n == 1 {
		g, rings = newLoneGroup(slot)
	} else {
		g = &Group{Flows: make([]Endpoint, n), rcv: make([]receiver, n)}
		rings = make([]segMeta, n*slot)
	}
	g.sim, g.enqueue, g.cfg, g.step = s, enqueue, cfg, step
	g.lane = s.Lane(g.ackDelay())
	g.arrive = g.ackArrive
	g.timers = s.NewRoute((*groupTimers)(g))
	for i := range g.Flows {
		c, mode := cc(i)
		g.Flows[i].init(g, i, c, mode, rings[i*slot:(i+1)*slot:(i+1)*slot])
	}
	return g
}

// ackDelay is the delay of the group's ACK lane: the whole BaseRTT
// classically, or zero under SplitPropagation (both one-way legs are then
// charged on the cross-domain wires).
func (g *Group) ackDelay() time.Duration {
	if g.cfg.SplitPropagation {
		return 0
	}
	return g.cfg.BaseRTT
}

// lone is a group of one flow in one allocation. R is the flow's first ring,
// an array of the slot size its length gives it, so a short flow's group is
// no bigger than its parts were as separate allocations (TestFlowFootprint
// holds each size within the allocator's size class of those parts).
type lone[R any] struct {
	g    Group
	flow [1]Endpoint
	rcv  [1]receiver
	ring R
}

// newLone allocates a lone[R] and returns its Group, slabs set, and its ring.
func newLone[R any](ring func(*R) []segMeta) (*Group, []segMeta) {
	l := new(lone[R])
	l.g.Flows, l.g.rcv = l.flow[:], l.rcv[:]
	return &l.g, ring(&l.ring)
}

// newLoneGroup allocates a group of one whose ring holds slot entries (a
// power of two up to ringSlot).
func newLoneGroup(slot int) (*Group, []segMeta) {
	switch slot {
	case 1:
		return newLone(func(r *[1]segMeta) []segMeta { return r[:] })
	case 2:
		return newLone(func(r *[2]segMeta) []segMeta { return r[:] })
	case 4:
		return newLone(func(r *[4]segMeta) []segMeta { return r[:] })
	case 8:
		return newLone(func(r *[8]segMeta) []segMeta { return r[:] })
	case 16:
		return newLone(func(r *[16]segMeta) []segMeta { return r[:] })
	}
	return newLone(func(r *[ringSlot]segMeta) []segMeta { return r[:] })
}

// groupTimers is a Group as the Router of its flows' timer events: flow i's
// retransmission timeout runs with argument 2i, its delayed ACK with 2i+1.
type groupTimers Group

func (t *groupTimers) Fire(arg int32) {
	g := (*Group)(t)
	if arg&1 == 0 {
		g.Flows[arg>>1].onRTO()
	} else {
		g.rcv[arg>>1].delAckFire()
	}
}

// timerAt schedules, at the absolute time at, flow id's retransmission
// timeout, or its delayed ACK if delAck.
func (g *Group) timerAt(at time.Duration, id int, delAck bool) sim.Timer {
	arg := 2 * int32(g.index(id))
	if delAck {
		arg++
	}
	return g.sim.AtRoute(at, g.timers, arg)
}

// flowDone records a completed flow. Once every flow has completed none
// can arm a timer again, so the group closes its route: the simulator then
// no longer holds the group, which a run starting short flows one group
// each would otherwise keep alive to its end.
func (g *Group) flowDone() {
	g.done++
	if int(g.done) == len(g.Flows) {
		g.sim.CloseRoute(g.timers)
		g.timers = 0
	}
}

// index returns the slab index of a flow id. It runs twice per packet, so
// it skips the division where ids are consecutive.
func (g *Group) index(id int) int {
	i := id - g.cfg.ID
	if g.step > 1 {
		i /= g.step
	}
	return i
}

// DeliverData hands a data segment to its flow's receiver
// (Endpoint.DeliverData): the one delivery callback a dispatcher needs for
// every id in the group.
func (g *Group) DeliverData(p *packet.Packet) {
	r := &g.rcv[g.index(p.FlowID)]
	if r.id != p.FlowID {
		panic(fmt.Sprintf("tcp: flow %d is not in the group of flows %d+%d·i", p.FlowID, g.cfg.ID, g.step))
	}
	r.DeliverData(p)
}

// ackArrive delivers the ACK its lane event carries to its sender and
// recycles it.
func (g *Group) ackArrive() {
	p := g.lane.Packet()
	g.Flows[g.index(p.FlowID)].onAck(p)
	g.sim.PacketPool().Release(p)
}

// oooBuf returns r's first out-of-order buffer: an empty slot of the group's
// slab, capped so that growing past it moves the buffer to the heap.
func (g *Group) oooBuf(r *receiver) []int64 {
	if g.ooo == nil {
		g.ooo = make([]int64, len(g.Flows)*oooSlot)
	}
	i := g.index(r.id) * oooSlot
	return g.ooo[i : i : i+oooSlot]
}
