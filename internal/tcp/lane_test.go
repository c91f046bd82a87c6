package tcp

import (
	"fmt"
	"testing"
	"time"

	"pi2/internal/core"
	"pi2/internal/link"
	"pi2/internal/packet"
	"pi2/internal/sim"
)

// The tests below run a small cell whose per-packet events all travel on
// scheduler lanes — the bottleneck's serializer lane and the flows' shared
// ACK-return lane — and hold it to two whole-cell properties: translating the
// frozen world in time (the fast-forward commit) changes nothing but the time
// base, and recycling packets under poison changes nothing at all.

const (
	laneCellRTT   = 10 * time.Millisecond
	laneCellFlows = 8
)

// laneCell is one bottleneck with a mix of Reno and DCTCP flows. (No Cubic:
// its epoch anchor is an absolute time the ff engine re-derives rather than
// shifts, so it is not translation-invariant by construction.)
type laneCell struct {
	s     *sim.Simulator
	l     *link.Link     // nil in the dual arm
	dual  *core.DualLink // nil in the single-queue arm
	flows []*Endpoint
}

func newLaneCell(seed int64, dual, poison bool) *laneCell {
	s := sim.New(seed)
	s.PacketPool().Poison = poison
	c := &laneCell{s: s}
	d := link.NewDispatcher()
	const rate = 48e6
	var enqueue Enqueuer
	if dual {
		c.dual = core.NewDualLink(s, rate, core.DualConfig{}, d.Deliver)
		enqueue = c.dual.Enqueue
	} else {
		c.l = link.New(s, link.Config{RateBps: rate, AQM: core.New(core.Config{}, s.RNG())}, d.Deliver)
		enqueue = c.l.Enqueue
	}
	for id := 0; id < laneCellFlows; id++ {
		cfg := Config{ID: id, CC: Reno{}, BaseRTT: laneCellRTT}
		if id%2 == 1 {
			cfg.CC, cfg.ECN = &DCTCP{}, ECNScalable
		}
		e := NewWithEnqueuer(s, enqueue, cfg)
		d.Register(id, e.DeliverData)
		c.flows = append(c.flows, e)
		s.After(time.Duration(id)*time.Millisecond, e.Start)
	}
	return c
}

// fingerprint is everything behavioural the cell exposes that does not depend
// on the absolute time base.
func (c *laneCell) fingerprint() string {
	out := fmt.Sprintf("events=%d pending=%d", c.s.Processed(), c.s.Pending())
	if c.l != nil {
		out += fmt.Sprintf(" enq=%d deq=%d marks=%d drops=%d backlog=%d soj=%v", c.l.Enqueues(), c.l.Dequeues(),
			c.l.Marks(), c.l.TotalDrops(), c.l.BacklogPackets(), c.l.Sojourn.Mean())
	} else {
		lm, cm := c.dual.Marks()
		out += fmt.Sprintf(" lmarks=%d cmarks=%d drops=%d soj=%v/%v", lm, cm, c.dual.TotalDrops(),
			c.dual.LSojourn.Mean(), c.dual.CSojourn.Mean())
	}
	for _, e := range c.flows {
		// e's String carries cwnd, sndUna and sndNxt.
		out += fmt.Sprintf("\n%v srtt=%v rttvar=%v minrtt=%v retx=%d ce=%d", e, e.state.SRTT,
			e.state.RTTVar, e.state.MinRTT, e.retransmissions, e.ceAcked)
	}
	return out
}

func (c *laneCell) violations() []string {
	if c.l != nil {
		return c.l.Audit().Violations()
	}
	return c.dual.Audit().Violations()
}

// TestTimeShiftTwinOverLanes is the fast-forward twin at zero analytic
// progress: freeze the cell mid-run with a few dozen ACKs queued on the
// shared return lane and a packet on the serializer lane, translate it by
// delta exactly as ff.Engine's commit does, and run on. Everything but the
// time base must match the unshifted twin bit for bit — which it only does if
// ShiftPending moved every ring behind every lane head, not just the heap.
func TestTimeShiftTwinOverLanes(t *testing.T) {
	const (
		freeze = 1500 * time.Millisecond
		rest   = 1500 * time.Millisecond
		delta  = 7*time.Second + 13*time.Microsecond
	)
	base := newLaneCell(5, false, false)
	base.s.RunUntil(freeze + rest)

	twin := newLaneCell(5, false, false)
	twin.s.RunUntil(freeze)
	if queued := twin.s.Lane(laneCellRTT).Len(); queued < 16 {
		t.Fatalf("only %d ACKs in flight on the shared lane at the freeze; the twin would prove nothing", queued)
	}
	if !twin.l.Busy() {
		t.Fatal("serializer idle at the freeze; its lane is empty")
	}
	twin.s.ShiftPending(delta)
	twin.l.FFShift(delta)
	for _, e := range twin.flows {
		e.FFShift(delta)
	}
	twin.s.RunUntil(freeze + delta + rest)

	if b, w := base.fingerprint(), twin.fingerprint(); b != w {
		t.Errorf("shifted twin diverged:\n--- unshifted\n%s\n--- shifted by %v\n%s", b, delta, w)
	}
	if base.l.Marks() == 0 || base.s.Processed() < 10000 {
		t.Errorf("cell too tame: %d marks, %d events", base.l.Marks(), base.s.Processed())
	}
	// The auditor's clock check sees the jump as forward progress only.
	if v := twin.violations(); v != nil {
		t.Errorf("auditor: %v", v)
	}
}

// TestPoisonedPoolOverLanes is the -tagfree run: with every released packet
// scrambled, a stale alias anywhere on the lane-scheduled path (the txPkt
// slot, the ACKs held in the shared lane's ring slots) would panic on a bad
// flow id or corrupt a counter. Both bottleneck machines must behave
// identically with poison on and off.
func TestPoisonedPoolOverLanes(t *testing.T) {
	for _, dual := range []bool{false, true} {
		clean := newLaneCell(9, dual, false)
		clean.s.RunUntil(3 * time.Second)
		poisoned := newLaneCell(9, dual, true)
		poisoned.s.RunUntil(3 * time.Second)
		if c, p := clean.fingerprint(), poisoned.fingerprint(); c != p {
			t.Errorf("dual=%v: poisoning released packets changed behaviour:\n--- clean\n%s\n--- poisoned\n%s", dual, c, p)
		}
		if v := poisoned.violations(); v != nil {
			t.Errorf("dual=%v: auditor: %v", dual, v)
		}
		if clean.s.Processed() < 10000 {
			t.Errorf("dual=%v: cell too tame: %d events", dual, clean.s.Processed())
		}
	}
}

// TestAckLaneIsSharedPerDelay: flows with one BaseRTT share one lane, another
// BaseRTT gets its own, and SplitPropagation moves a flow to the zero-delay
// lane whatever its BaseRTT.
func TestAckLaneIsSharedPerDelay(t *testing.T) {
	s := sim.New(1)
	sink := func(p *packet.Packet) { s.PacketPool().Release(p) }
	mk := func(id int, rtt time.Duration, split bool) *Endpoint {
		return NewWithEnqueuer(s, sink, Config{ID: id, CC: Reno{}, BaseRTT: rtt, SplitPropagation: split})
	}
	a, b := mk(1, 10*time.Millisecond, false), mk(2, 10*time.Millisecond, false)
	c, d := mk(3, 20*time.Millisecond, false), mk(4, 20*time.Millisecond, true)
	if a.sender.grp.lane != b.sender.grp.lane || a.sender.grp.lane != s.Lane(10*time.Millisecond) {
		t.Error("equal BaseRTTs did not share the delay's lane")
	}
	if c.sender.grp.lane == a.sender.grp.lane || c.sender.grp.lane != s.Lane(20*time.Millisecond) {
		t.Error("a different BaseRTT did not get its own lane")
	}
	if d.sender.grp.lane != s.Lane(0) || d.sender.grp.ackDelay() != 0 {
		t.Error("SplitPropagation flow is not on the zero-delay lane")
	}
}
