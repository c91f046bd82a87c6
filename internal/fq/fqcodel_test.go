package fq

import (
	"testing"
	"time"

	"pi2/internal/link"
	"pi2/internal/packet"
	"pi2/internal/sim"
	"pi2/internal/stats"
	"pi2/internal/tcp"
)

func TestSingleFlowDrains(t *testing.T) {
	s := sim.New(1)
	n := 0
	l := New(s, Config{RateBps: 12e6}, func(*packet.Packet) { n++ })
	for i := int64(0); i < 20; i++ {
		l.Enqueue(packet.NewData(1, i, packet.MSS, packet.NotECT))
	}
	s.RunUntil(time.Second)
	if n != 20 {
		t.Errorf("delivered %d, want 20", n)
	}
	if l.BacklogPackets() != 0 {
		t.Errorf("backlog %d", l.BacklogPackets())
	}
}

func TestFairnessBetweenBacklogs(t *testing.T) {
	// Two permanently backlogged flows must each get ~half the deliveries
	// regardless of arrival imbalance.
	s := sim.New(1)
	got := map[int]int{}
	l := New(s, Config{RateBps: 12e6}, func(p *packet.Packet) { got[p.FlowID]++ })
	// Flow 1 offers 3x more packets than flow 2.
	for i := int64(0); i < 300; i++ {
		l.Enqueue(packet.NewData(1, i, packet.MSS, packet.NotECT))
	}
	for i := int64(0); i < 100; i++ {
		l.Enqueue(packet.NewData(2, i, packet.MSS, packet.NotECT))
	}
	// Serve exactly 150 packet times.
	s.RunUntil(150 * time.Millisecond) // 1 ms per packet at 12 Mb/s
	if got[2] < 70 {
		t.Errorf("flow 2 got %d of ~75 fair deliveries (flow 1: %d)", got[2], got[1])
	}
}

func TestNewFlowPriority(t *testing.T) {
	// A fresh sparse flow's packet jumps ahead of a deep old queue.
	s := sim.New(1)
	var order []int
	l := New(s, Config{RateBps: 1.2e6}, func(p *packet.Packet) { order = append(order, p.FlowID) })
	for i := int64(0); i < 50; i++ {
		l.Enqueue(packet.NewData(1, i, packet.MSS, packet.NotECT))
	}
	s.RunUntil(50 * time.Millisecond) // several packets served; flow 1 now "old"
	l.Enqueue(packet.NewData(2, 0, 100, packet.NotECT))
	s.RunUntil(100 * time.Millisecond)
	pos := -1
	for i, f := range order {
		if f == 2 {
			pos = i
			break
		}
	}
	if pos < 0 {
		t.Fatal("flow 2 never served")
	}
	// It must be served within ~2 packets of its arrival (one in
	// transmission + immediate priority), i.e. near position 5-7, far
	// before the 50 flow-1 packets drain.
	if pos > 10 {
		t.Errorf("sparse flow served at position %d, want near-immediate priority", pos)
	}
}

func TestOverflowDrops(t *testing.T) {
	s := sim.New(1)
	l := New(s, Config{RateBps: 1e6, BufferPackets: 10}, func(*packet.Packet) {})
	for i := int64(0); i < 30; i++ {
		l.Enqueue(packet.NewData(1, i, packet.MSS, packet.NotECT))
	}
	if l.TotalDrops() == 0 {
		t.Error("no overflow drops")
	}
	s.RunUntil(time.Second)
}

func TestCoDelEngagesPerQueue(t *testing.T) {
	// A single saturating Reno flow over FQ-CoDel: its queue must be
	// CoDel-controlled to ~target, not grow to the buffer limit.
	s := sim.New(1)
	d := link.NewDispatcher()
	l := New(s, Config{RateBps: 10e6}, d.Deliver)
	ep := tcp.NewWithEnqueuer(s, l.Enqueue, tcp.Config{ID: 1, CC: tcp.Reno{}, BaseRTT: 50 * time.Millisecond})
	d.Register(1, ep.DeliverData)
	ep.Start()
	s.RunUntil(30 * time.Second)
	// CoDel ECN-marks the flow (ECN off here → drops) and keeps sojourn low.
	if l.Drops(link.DropAQM) == 0 {
		t.Error("CoDel never engaged")
	}
	mean := l.Sojourn.Mean()
	if mean > 0.030 {
		t.Errorf("mean sojourn %.1f ms, want CoDel-controlled (~5 ms target)", mean*1e3)
	}
	// A single Reno flow under CoDel's 5 ms target pays utilization for
	// latency (halving below BDP drains the shallow queue) — the classic
	// CoDel trade-off. Anything above ~0.75 is the expected regime.
	if u := l.Utilization(); u < 0.75 {
		t.Errorf("utilization %.3f", u)
	}
}

// TestFQIsolatesWithoutCoupling is the paper-motivating comparison: under
// FQ, Cubic vs DCTCP fairness comes from scheduling, not from any coupled
// signal — both get their fair share AND the DCTCP flow sees low delay,
// but only because the network classifies flows (the cost the paper's
// single-queue design avoids).
func TestFQIsolatesWithoutCoupling(t *testing.T) {
	s := sim.New(2)
	d := link.NewDispatcher()
	l := New(s, Config{RateBps: 40e6}, d.Deliver)
	cubic := tcp.NewWithEnqueuer(s, l.Enqueue, tcp.Config{ID: 1, CC: &tcp.Cubic{}, BaseRTT: 10 * time.Millisecond})
	dctcp := tcp.NewWithEnqueuer(s, l.Enqueue, tcp.Config{ID: 2, CC: &tcp.DCTCP{}, ECN: tcp.ECNScalable, BaseRTT: 10 * time.Millisecond})
	d.Register(1, cubic.DeliverData)
	d.Register(2, dctcp.DeliverData)
	cubic.Start()
	dctcp.Start()
	s.RunUntil(15 * time.Second)
	cubic.Goodput.Reset(s.Now())
	dctcp.Goodput.Reset(s.Now())
	s.RunUntil(45 * time.Second)
	now := s.Now()
	ratio := cubic.Goodput.RateBps(now) / dctcp.Goodput.RateBps(now)
	jain := stats.JainIndex([]float64{cubic.Goodput.RateBps(now), dctcp.Goodput.RateBps(now)})
	t.Logf("fq-codel: cubic/dctcp = %.3f, jain = %.3f", ratio, jain)
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("FQ scheduling failed to isolate: ratio %.3f", ratio)
	}
	if jain < 0.9 {
		t.Errorf("jain %.3f, want > 0.9 under per-flow scheduling", jain)
	}
}

func TestBucketSpreads(t *testing.T) {
	l := New(sim.New(1), Config{RateBps: 1e6, Queues: 64}, func(*packet.Packet) {})
	seen := map[int]bool{}
	for id := 0; id < 32; id++ {
		seen[l.bucket(id)] = true
	}
	if len(seen) < 24 {
		t.Errorf("32 flows landed in only %d of 64 buckets", len(seen))
	}
}

// TestDropsTakeTheLinkDropPath: overflow and CoDel head drops both go
// through the link's one drop path — counted, audited and recycled to the
// pool.
func TestDropsTakeTheLinkDropPath(t *testing.T) {
	s := sim.New(1)
	pool := s.PacketPool()
	delivered := 0
	l := New(s, Config{RateBps: 1e6, BufferPackets: 20, Target: time.Millisecond, Interval: 10 * time.Millisecond},
		func(*packet.Packet) { delivered++ })
	for i := 0; i < 400; i++ {
		seq := int64(i)
		s.At(time.Duration(i)*2*time.Millisecond, func() { // 6x overload
			l.Enqueue(pool.NewData(1+int(seq%3), seq, packet.MSS, packet.NotECT))
		})
	}
	s.Run()
	if l.Drops(link.DropOverflow) == 0 || l.Drops(link.DropAQM) == 0 {
		t.Fatalf("want both kinds of drop: overflow %d, codel %d", l.Drops(link.DropOverflow), l.Drops(link.DropAQM))
	}
	if msg := l.Audit().Err("fq-codel"); msg != "" {
		t.Fatal(msg)
	}
	if got := pool.Stats().Released; got != uint64(l.TotalDrops()) {
		t.Errorf("pool saw %d releases, want %d (one per drop)", got, l.TotalDrops())
	}
	if delivered+l.TotalDrops() != 400 {
		t.Errorf("delivered %d + dropped %d != 400 offered", delivered, l.TotalDrops())
	}
}
