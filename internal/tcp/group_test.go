package tcp

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"
	"time"
	"unsafe"

	"pi2/internal/core"
	"pi2/internal/link"
	"pi2/internal/packet"
	"pi2/internal/sim"
)

// groupMix is the congestion-control mix of the group tests: a Reno, a
// Cubic and a DCTCP flow in turn.
var groupMix = []string{"reno", "cubic", "dctcp"}

// groupCell runs n flows of the control mix through a PI2 bottleneck under
// the ECN-feedback arm feedback (NewCCFeedback), flow i with id
// cfg.ID+i*step and starting i ms in, built either as one group or as n
// groups of one (NewWithEnqueuer), and returns everything behavioural the
// cell exposes: the event count, a hash of the delivery sequence (flow, seq,
// time of every packet the link delivered), the link's counters and every
// flow's state.
func groupCell(t *testing.T, n, step int, cfg Config, feedback string, mix []string, oneGroup bool) string {
	t.Helper()
	s := sim.New(3)
	d := link.NewDispatcher()
	h := fnv.New64a()
	var rec [24]byte
	deliver := func(p *packet.Packet) {
		binary.LittleEndian.PutUint64(rec[0:], uint64(p.FlowID))
		binary.LittleEndian.PutUint64(rec[8:], uint64(p.Seq))
		binary.LittleEndian.PutUint64(rec[16:], uint64(s.Now()))
		h.Write(rec[:])
		d.Deliver(p)
	}
	l := link.New(s, link.Config{RateBps: 100e6, BufferPackets: 200,
		AQM: core.New(core.Config{}, s.RNG())}, deliver)
	var flows []*Endpoint
	if oneGroup {
		g, err := NewGroup(s, l.Enqueue, cfg, n, step, feedback, mix...)
		if err != nil {
			t.Fatal(err)
		}
		deliver := g.DeliverData
		for i := range g.Flows {
			d.Register(g.Flows[i].ID(), deliver)
			flows = append(flows, &g.Flows[i])
		}
	} else {
		for i := 0; i < n; i++ {
			c := cfg
			c.ID = cfg.ID + i*step
			cc, mode, err := NewCCFeedback(mix[i%len(mix)], feedback)
			if err != nil {
				t.Fatal(err)
			}
			c.CC, c.ECN = cc, mode
			ep := NewWithEnqueuer(s, l.Enqueue, c)
			d.Register(c.ID, ep.DeliverData)
			flows = append(flows, ep)
		}
	}
	for i, ep := range flows {
		s.At(time.Duration(i)*time.Millisecond, ep.Start)
	}
	s.RunUntil(4 * time.Second)
	out := fmt.Sprintf("events=%d deliveries=%x enq=%d marks=%d drops=%d backlog=%d",
		s.Processed(), h.Sum64(), l.Enqueues(), l.Marks(), l.TotalDrops(), l.BacklogPackets())
	for _, e := range flows {
		out += fmt.Sprintf("\n%v ect=%v srtt=%v rttvar=%v retx=%d cong=%d rto=%d ce=%d marks=%d goodput=%d done=%v",
			e, e.DataECN(), e.state.SRTT, e.state.RTTVar, e.retransmissions, e.congestionEvents, e.rtoCount,
			e.ceAcked, e.marksSeen, e.Goodput.Bytes(), e.completed)
	}
	return out
}

// TestGroupMatchesGroupsOfOne: a scenario built as one group behaves exactly
// like the same flows built one by one: same events, same deliveries in the
// same order, same per-flow state. The cell congests its buffer, so flows
// outgrow their first ring and out-of-order slots and move to the heap. The
// arm cases cross controls with the ECN feedback they would not pick
// themselves, which a flow's halves take at construction.
func TestGroupMatchesGroupsOfOne(t *testing.T) {
	cases := []struct {
		name     string
		n        int
		step     int
		cfg      Config
		feedback string
		mix      []string
	}{
		{"bulk", 6, 1, Config{ID: 1, BaseRTT: 40 * time.Millisecond}, "", groupMix},
		{"sack-step3", 6, 3, Config{ID: 2, BaseRTT: 30 * time.Millisecond, SACK: true}, "", groupMix},
		{"delack-finite", 9, 1, Config{ID: 5, BaseRTT: 20 * time.Millisecond, AckEvery: 2, FlowSegs: 3000}, "", groupMix},
		{"finite-small", 9, 2, Config{ID: 1, BaseRTT: 10 * time.Millisecond, FlowSegs: 5}, "", groupMix},
		{"classic-arm-scalable", 6, 1, Config{ID: 1, BaseRTT: 40 * time.Millisecond, AckEvery: 2}, "classic", []string{"dctcp", "prague"}},
		{"accurate-arm-classic", 6, 2, Config{ID: 3, BaseRTT: 30 * time.Millisecond}, "accurate", []string{"reno", "cubic"}},
		{"ecn-cubic-scalable", 6, 1, Config{ID: 1, BaseRTT: 20 * time.Millisecond, AckEvery: 2}, "", []string{"ecn-cubic", "scalable"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			one := groupCell(t, tc.n, tc.step, tc.cfg, tc.feedback, tc.mix, false)
			grouped := groupCell(t, tc.n, tc.step, tc.cfg, tc.feedback, tc.mix, true)
			if one != grouped {
				t.Fatalf("groups of one:\n%s\none group:\n%s", one, grouped)
			}
		})
	}
}

// TestGroupOutgrowsItsSlots: a congested group's flows leave their slab
// slots for the heap when they outgrow them, and keep working.
func TestGroupOutgrowsItsSlots(t *testing.T) {
	s := sim.New(3)
	d := link.NewDispatcher()
	l := link.New(s, link.Config{RateBps: 100e6, BufferPackets: 200,
		AQM: core.New(core.Config{}, s.RNG())}, d.Deliver)
	g, err := NewGroup(s, l.Enqueue, Config{ID: 1, BaseRTT: 40 * time.Millisecond}, 6, 1, "", groupMix...)
	if err != nil {
		t.Fatal(err)
	}
	deliver := g.DeliverData
	for i := range g.Flows {
		d.Register(g.Flows[i].ID(), deliver)
		g.Flows[i].Start()
	}
	s.RunUntil(4 * time.Second)
	var ring, ooo bool
	for i := range g.Flows {
		e := &g.Flows[i]
		ring = ring || len(e.meta.buf) > ringSlot
		ooo = ooo || cap(e.oooSorted) > oooSlot
		if e.Goodput.Bytes() == 0 {
			t.Errorf("flow %d delivered nothing", e.ID())
		}
	}
	if !ring || !ooo {
		t.Errorf("no flow outgrew its slots (ring %v, out-of-order %v): the cell is too gentle", ring, ooo)
	}
}

// TestGroupSetUpAllocs: building an N-flow group, registering it with a
// dispatcher and starting every flow costs a constant number of heap objects
// per group, whatever N: no callback is bound per flow.
func TestGroupSetUpAllocs(t *testing.T) {
	setUp := func(n int) float64 {
		return testing.AllocsPerRun(3, func() {
			s := sim.New(1)
			pool := s.PacketPool()
			g, err := NewGroup(s, func(p *packet.Packet) { pool.Release(p) },
				Config{ID: 1, BaseRTT: 10 * time.Millisecond}, n, 1, "", groupMix...)
			if err != nil {
				t.Fatal(err)
			}
			d := link.NewDispatcher()
			d.Reserve(n + 1)
			deliver := g.DeliverData
			for i := range g.Flows {
				d.Register(g.Flows[i].ID(), deliver)
				g.Flows[i].Start()
			}
		})
	}
	const perGroup = 64
	for _, n := range []int{500, 4000} {
		if a := setUp(n); a > perGroup {
			t.Errorf("%d flows: %.0f allocations, want at most %d", n, a, perGroup)
		}
	}
}

// TestLoneFlowSetUpAllocs: a group of one (a web flow, or NewWithEnqueuer)
// costs at most three heap objects to build, register and start on a running
// simulation: the group with its one flow and first ring, the group's ACK
// callback, and the delivery callback the dispatcher holds. A stateful
// control (Cubic, DCTCP, Prague) adds itself. Finished flows close their
// timer route, so a long run of short flows reuses one route.
func TestLoneFlowSetUpAllocs(t *testing.T) {
	for _, segs := range []int64{0, 3, 20, 1000} {
		s := sim.New(1)
		pool := s.PacketPool()
		sink := func(p *packet.Packet) { pool.Release(p) }
		d := link.NewDispatcher()
		d.Reserve(1 << 12)
		id := 0
		launch := func() {
			id++
			g, err := NewGroup(s, sink, Config{ID: id, BaseRTT: 10 * time.Millisecond, FlowSegs: segs}, 1, 1, "", "reno")
			if err != nil {
				t.Fatal(err)
			}
			d.Register(id, g.DeliverData)
			g.Flows[0].Start()
		}
		launch() // the packet pool's first chunk and the route table
		if a := testing.AllocsPerRun(100, launch); a > 3 {
			t.Errorf("FlowSegs %d: a lone flow costs %.2f heap objects, want at most 3", segs, a)
		}
	}
}

// TestNewGroupRejectsBadNames: unknown controls and feedback arms fail the
// group, as they fail NewCCFeedback.
func TestNewGroupRejectsBadNames(t *testing.T) {
	s := sim.New(1)
	sink := func(p *packet.Packet) { s.PacketPool().Release(p) }
	cfg := Config{ID: 1, BaseRTT: 10 * time.Millisecond}
	if _, err := NewGroup(s, sink, cfg, 2, 1, "", "bbr"); err == nil {
		t.Error("unknown congestion control accepted")
	}
	if _, err := NewGroup(s, sink, cfg, 2, 1, "loud", "reno"); err == nil {
		t.Error("unknown feedback arm accepted")
	}
	if _, err := NewGroup(s, sink, cfg, 2, 1, ""); err == nil {
		t.Error("group without a congestion control accepted")
	}
	g, err := NewGroup(s, sink, cfg, 3, 1, "classic", "dctcp", "prague")
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"dctcp", "prague", "dctcp"} {
		if e := &g.Flows[i]; e.CCName() != want || e.ecn != ECNClassic {
			t.Errorf("flow %d: %s/%v, want %s/classic-ecn", i, e.CCName(), e.ecn, want)
		}
	}
}

// TestFlowFootprint: a flow's halves stay within the sizes measured when
// their timers moved to the group's route (64-bit): the sender, which every
// ACK reads, and the receiver, which every delivered segment reads, under two
// cache lines. A group of one, with its ring of each slot size, stays within
// the allocator size class that holds what its parts cost as separate objects
// (the group, the endpoint, the receiver, the ring and a bound RTO callback),
// so building it in one allocation does not raise the bytes allocated; the
// budget is that class less the 8-byte header the Go allocator puts on a
// pointerful object over 512 bytes. Growing any of these is a deliberate
// edit of its budget here.
func TestFlowFootprint(t *testing.T) {
	const header = 8
	for _, c := range []struct {
		half         string
		size, budget uintptr
	}{
		{"sender", unsafe.Sizeof(sender{}), 312},
		{"receiver", unsafe.Sizeof(receiver{}), 120},
		{"Endpoint (sender and receiver pointer)", unsafe.Sizeof(Endpoint{}), 320},
		{"group of one, 1-entry ring", unsafe.Sizeof(lone[[1]segMeta]{}), 704 - header},
		{"group of one, 2-entry ring", unsafe.Sizeof(lone[[2]segMeta]{}), 704 - header},
		{"group of one, 4-entry ring", unsafe.Sizeof(lone[[4]segMeta]{}), 704 - header},
		{"group of one, 8-entry ring", unsafe.Sizeof(lone[[8]segMeta]{}), 768 - header},
		{"group of one, 16-entry ring", unsafe.Sizeof(lone[[16]segMeta]{}), 896 - header},
		{"group of one, 32-entry ring", unsafe.Sizeof(lone[[ringSlot]segMeta]{}), 1152 - header},
	} {
		if c.size > c.budget {
			t.Errorf("%s is %d B, budget %d B", c.half, c.size, c.budget)
		}
	}
}

// TestFinishedGroupClosesItsRoute: once its flows have completed a group
// closes its timer route, and the next group reuses the route, so a run of
// short flows does not keep each finished one reachable from the simulator.
func TestFinishedGroupClosesItsRoute(t *testing.T) {
	s := sim.New(1)
	d := link.NewDispatcher()
	l := link.New(s, link.Config{RateBps: 10e6, BufferPackets: 100}, d.Deliver)
	var first sim.Route
	for i := 1; i <= 3; i++ {
		g, err := NewGroup(s, l.Enqueue, Config{ID: i, BaseRTT: 10 * time.Millisecond, FlowSegs: 40, AckEvery: 2}, 1, 1, "", "cubic")
		if err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			first = g.timers
		} else if g.timers != first {
			t.Errorf("group %d opened route %d, want the closed route %d again", i, g.timers, first)
		}
		d.Register(i, g.DeliverData)
		g.Flows[0].Start()
		s.RunUntil(s.Now() + time.Second)
		if !g.Flows[0].Completed() || g.timers != 0 {
			t.Fatalf("group %d: completed %v, route %d still open", i, g.Flows[0].Completed(), g.timers)
		}
	}
}
