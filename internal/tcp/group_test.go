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
// per group plus one per flow (its RTO callback), whatever N.
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
		if a := setUp(n); a > float64(n+perGroup) {
			t.Errorf("%d flows: %.0f allocations, want at most %d (one per flow plus %d)", n, a, n+perGroup, perGroup)
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
// they were split (64-bit): the sender, which every ACK reads, and the
// receiver, which every delivered segment reads, two cache lines. Growing
// either is a deliberate edit of its budget here.
func TestFlowFootprint(t *testing.T) {
	for _, c := range []struct {
		half         string
		size, budget uintptr
	}{
		{"sender", unsafe.Sizeof(sender{}), 320},
		{"receiver", unsafe.Sizeof(receiver{}), 128},
		{"Endpoint (sender and receiver pointer)", unsafe.Sizeof(Endpoint{}), 328},
	} {
		if c.size > c.budget {
			t.Errorf("%s is %d B, budget %d B", c.half, c.size, c.budget)
		}
	}
}
