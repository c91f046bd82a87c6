package link

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"pi2/internal/aqm"
	"pi2/internal/packet"
	"pi2/internal/sim"
)

// dropNth is a test AQM that drops the nth offered packet (1-based).
type dropNth struct {
	n     int
	seen  int
	onDeq func(*packet.Packet)
}

func (d *dropNth) Name() string { return "dropNth" }
func (d *dropNth) Enqueue(p *packet.Packet, _ aqm.QueueInfo, _ time.Duration) aqm.Verdict {
	d.seen++
	if d.seen == d.n {
		return aqm.Drop
	}
	return aqm.Accept
}
func (d *dropNth) Dequeue(p *packet.Packet, _ aqm.QueueInfo, _ time.Duration) {
	if d.onDeq != nil {
		d.onDeq(p)
	}
}
func (d *dropNth) UpdateInterval() time.Duration       { return 0 }
func (d *dropNth) Update(aqm.QueueInfo, time.Duration) {}

func mkData(flow int, seq int64) *packet.Packet {
	return packet.NewData(flow, seq, packet.MSS, packet.NotECT)
}

func TestSerializationTimingExact(t *testing.T) {
	s := sim.New(1)
	var deliveredAt []time.Duration
	l := New(s, Config{RateBps: 12e6}, func(p *packet.Packet) {
		deliveredAt = append(deliveredAt, s.Now())
	})
	// 1500 B at 12 Mb/s = exactly 1 ms per packet.
	l.Enqueue(mkData(1, 0))
	l.Enqueue(mkData(1, 1))
	l.Enqueue(mkData(1, 2))
	s.Run()
	want := []time.Duration{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond}
	if len(deliveredAt) != 3 {
		t.Fatalf("delivered %d", len(deliveredAt))
	}
	for i := range want {
		if deliveredAt[i] != want[i] {
			t.Errorf("packet %d delivered at %v, want %v", i, deliveredAt[i], want[i])
		}
	}
}

func TestFIFOOrder(t *testing.T) {
	s := sim.New(1)
	var seqs []int64
	l := New(s, Config{RateBps: 1e9}, func(p *packet.Packet) { seqs = append(seqs, p.Seq) })
	for i := int64(0); i < 50; i++ {
		l.Enqueue(mkData(1, i))
	}
	s.Run()
	for i, q := range seqs {
		if q != int64(i) {
			t.Fatalf("out of order at %d: %v", i, seqs)
		}
	}
}

func TestBufferTailDrop(t *testing.T) {
	s := sim.New(1)
	n := 0
	l := New(s, Config{RateBps: 1e6, BufferPackets: 5}, func(*packet.Packet) { n++ })
	var droppedPkts []*packet.Packet
	l.OnDrop = func(p *packet.Packet, r DropReason) {
		if r != DropOverflow {
			t.Errorf("reason %v, want overflow", r)
		}
		droppedPkts = append(droppedPkts, p)
	}
	// One goes straight to the transmitter, 5 queue, the rest drop.
	for i := int64(0); i < 10; i++ {
		l.Enqueue(mkData(1, i))
	}
	if got := l.Drops(DropOverflow); got != 4 {
		t.Errorf("overflow drops = %d, want 4", got)
	}
	s.Run()
	if n != 6 {
		t.Errorf("delivered %d, want 6", n)
	}
	if l.TotalDrops() != 4 || len(droppedPkts) != 4 {
		t.Errorf("TotalDrops=%d callback=%d", l.TotalDrops(), len(droppedPkts))
	}
}

func TestAQMDropCounted(t *testing.T) {
	s := sim.New(1)
	l := New(s, Config{RateBps: 1e9, AQM: &dropNth{n: 2}}, func(*packet.Packet) {})
	l.Enqueue(mkData(1, 0))
	l.Enqueue(mkData(1, 1)) // dropped by AQM
	l.Enqueue(mkData(1, 2))
	s.Run()
	if l.Drops(DropAQM) != 1 {
		t.Errorf("AQM drops = %d, want 1", l.Drops(DropAQM))
	}
	if l.Enqueues() != 3 || l.Dequeues() != 2 {
		t.Errorf("enq=%d deq=%d", l.Enqueues(), l.Dequeues())
	}
}

// markAll marks every packet.
type markAll struct{ dropNth }

func (m *markAll) Enqueue(p *packet.Packet, _ aqm.QueueInfo, _ time.Duration) aqm.Verdict {
	return aqm.Mark
}

func TestAQMMarkSetsCE(t *testing.T) {
	s := sim.New(1)
	var got packet.ECN
	l := New(s, Config{RateBps: 1e9, AQM: &markAll{}}, func(p *packet.Packet) { got = p.ECN })
	l.Enqueue(packet.NewData(1, 0, packet.MSS, packet.ECT0))
	s.Run()
	if got != packet.CE {
		t.Errorf("delivered ECN %v, want CE", got)
	}
	if l.Marks() != 1 {
		t.Errorf("marks = %d", l.Marks())
	}
}

func TestHeadSojournAndBacklog(t *testing.T) {
	s := sim.New(1)
	l := New(s, Config{RateBps: 1e6}, func(*packet.Packet) {})
	if l.HeadSojourn(s.Now()) != 0 {
		t.Error("empty queue has sojourn")
	}
	l.Enqueue(mkData(1, 0)) // goes to transmitter
	l.Enqueue(mkData(1, 1)) // queues
	if l.BacklogPackets() != 1 {
		t.Errorf("backlog = %d, want 1", l.BacklogPackets())
	}
	if l.BacklogBytes() != packet.FullLen {
		t.Errorf("backlog bytes = %d", l.BacklogBytes())
	}
	s.RunUntil(5 * time.Millisecond)
	if got := l.HeadSojourn(s.Now()); got != 5*time.Millisecond {
		t.Errorf("head sojourn = %v, want 5ms", got)
	}
}

func TestQueueDelayNow(t *testing.T) {
	s := sim.New(1)
	l := New(s, Config{RateBps: 12e6}, func(*packet.Packet) {})
	l.Enqueue(mkData(1, 0))
	l.Enqueue(mkData(1, 1)) // 1500 B backlog at 12 Mb/s = 1 ms
	if got := l.QueueDelayNow(); got != time.Millisecond {
		t.Errorf("QueueDelayNow = %v, want 1ms", got)
	}
	s.Run()
}

func TestSetRateBps(t *testing.T) {
	s := sim.New(1)
	var at []time.Duration
	l := New(s, Config{RateBps: 12e6}, func(*packet.Packet) { at = append(at, s.Now()) })
	l.Enqueue(mkData(1, 0))
	l.SetRateBps(1.2e6) // the queued packet (not yet started) uses the new rate
	l.Enqueue(mkData(1, 1))
	s.Run()
	// First packet started at old rate: 1 ms. Second at new rate: 10 ms.
	if at[0] != time.Millisecond || at[1] != 11*time.Millisecond {
		t.Errorf("delivery times %v, want [1ms 11ms]", at)
	}
	if l.RateBps() != 1.2e6 {
		t.Error("RateBps getter")
	}
}

func TestUtilizationFull(t *testing.T) {
	s := sim.New(1)
	l := New(s, Config{RateBps: 12e6}, func(*packet.Packet) {})
	for i := int64(0); i < 10; i++ {
		l.Enqueue(mkData(1, i))
	}
	s.Run() // ends exactly when the last packet finishes
	if u := l.Utilization(); u < 0.999 {
		t.Errorf("utilization = %v, want 1", u)
	}
}

func TestUtilizationHalf(t *testing.T) {
	s := sim.New(1)
	l := New(s, Config{RateBps: 12e6}, func(*packet.Packet) {})
	l.Enqueue(mkData(1, 0)) // 1 ms of work
	s.RunUntil(2 * time.Millisecond)
	if u := l.Utilization(); u < 0.49 || u > 0.51 {
		t.Errorf("utilization = %v, want 0.5", u)
	}
}

func TestResetStats(t *testing.T) {
	s := sim.New(1)
	l := New(s, Config{RateBps: 12e6, BufferPackets: 1}, func(*packet.Packet) {})
	l.Enqueue(mkData(1, 0))
	l.Enqueue(mkData(1, 1))
	l.Enqueue(mkData(1, 2)) // overflow
	s.RunUntil(500 * time.Microsecond)
	l.ResetStats()
	if l.TotalDrops() != 0 || l.Enqueues() != 0 || l.Sojourn.N() != 0 {
		t.Error("ResetStats did not clear counters")
	}
	// Utilization window restarts mid-transmission: the link is busy
	// from the reset point on.
	s.RunUntil(time.Millisecond)
	if u := l.Utilization(); u < 0.99 {
		t.Errorf("utilization after mid-busy reset = %v, want ~1", u)
	}
}

func TestSojournRecorded(t *testing.T) {
	s := sim.New(1)
	l := New(s, Config{RateBps: 12e6}, func(*packet.Packet) {})
	l.Enqueue(mkData(1, 0))
	l.Enqueue(mkData(1, 1)) // waits 1 ms before serializing
	s.Run()
	if n := l.Sojourn.N(); n != 2 {
		t.Fatalf("sojourn samples = %d", n)
	}
	if got := l.Sojourn.Max(); got < 0.0009 || got > 0.0011 {
		t.Errorf("max sojourn = %v s, want ~1ms", got)
	}
}

// headDropper drops every packet at dequeue (DequeueDropper).
type headDropper struct{ dropNth }

func (h *headDropper) DequeueVerdict(p *packet.Packet, _ aqm.QueueInfo, _ time.Duration) aqm.Verdict {
	return aqm.Drop
}

func TestDequeueDropperDrainsQueue(t *testing.T) {
	s := sim.New(1)
	n := 0
	l := New(s, Config{RateBps: 1e6, AQM: &headDropper{}}, func(*packet.Packet) { n++ })
	for i := int64(0); i < 5; i++ {
		l.Enqueue(mkData(1, i))
	}
	s.Run()
	if n != 0 {
		t.Errorf("delivered %d with head-drop-everything AQM", n)
	}
	if l.Drops(DropAQM) != 5 {
		t.Errorf("AQM drops = %d, want 5", l.Drops(DropAQM))
	}
	// The link must be idle and reusable afterwards.
	l2 := &dropNth{}
	_ = l2
	if l.BacklogPackets() != 0 {
		t.Error("backlog left behind")
	}
}

func TestDispatcherRoutes(t *testing.T) {
	d := NewDispatcher()
	got := map[int]int{}
	d.Register(1, func(*packet.Packet) { got[1]++ })
	d.Register(2, func(*packet.Packet) { got[2]++ })
	d.Deliver(mkData(1, 0))
	d.Deliver(mkData(2, 0))
	d.Deliver(mkData(2, 1))
	if got[1] != 1 || got[2] != 2 {
		t.Errorf("routing wrong: %v", got)
	}
}

// TestDispatcherUnknownPanics: a packet for a flow nobody registered is a
// wiring bug whatever the id looks like — past the table, inside a gap of it,
// or negative — and the panic names the flow.
func TestDispatcherUnknownPanics(t *testing.T) {
	for _, id := range []int{9, 3, 0, -1, -1 << 40} {
		func() {
			defer func() {
				want := fmt.Sprintf("link: no handler for flow %d", id)
				if r := recover(); r != want {
					t.Errorf("flow %d: recovered %v, want %q", id, r, want)
				}
			}()
			d := NewDispatcher()
			d.Register(1, func(*packet.Packet) {})
			d.Register(5, func(*packet.Packet) {})
			d.Deliver(mkData(id, 0))
		}()
	}
}

func TestDispatcherUnregisterDiscards(t *testing.T) {
	d := NewDispatcher()
	d.Register(1, func(*packet.Packet) { t.Fatal("handler called after unregister") })
	d.Unregister(1)
	d.Deliver(mkData(1, 0)) // must not panic, must not call old handler
	// Retiring a flow that was never registered also swallows its packets
	// (a web flow can complete before its first delivery is routed).
	d.Unregister(7)
	d.Deliver(mkData(7, 0))
	if n := testing.AllocsPerRun(100, func() { d.Unregister(1) }); n != 0 {
		t.Errorf("Unregister allocates %.0f objects per call, want 0", n)
	}
}

func TestAQMTimerWired(t *testing.T) {
	s := sim.New(1)
	ticker := &countingAQM{interval: 10 * time.Millisecond}
	New(s, Config{RateBps: 1e6, AQM: ticker}, func(*packet.Packet) {})
	s.RunUntil(105 * time.Millisecond)
	if ticker.updates != 10 {
		t.Errorf("updates = %d, want 10", ticker.updates)
	}
}

type countingAQM struct {
	dropNth
	interval time.Duration
	updates  int
}

func (c *countingAQM) UpdateInterval() time.Duration       { return c.interval }
func (c *countingAQM) Update(aqm.QueueInfo, time.Duration) { c.updates++ }

// TestEnqueueAfterReleasePanics: handing the link a packet that already went
// back to the pool is a lifecycle bug and must fail loudly.
func TestEnqueueAfterReleasePanics(t *testing.T) {
	s := sim.New(1)
	l := New(s, Config{RateBps: 1e9}, func(*packet.Packet) {})
	p := s.PacketPool().NewData(1, 0, packet.MSS, packet.NotECT)
	s.PacketPool().Release(p)
	defer func() {
		if recover() == nil {
			t.Fatal("enqueue of a released packet did not panic")
		}
	}()
	l.Enqueue(p)
}

// TestDroppedPacketsRecycled: without an OnDrop observer the link is a
// dropped packet's terminal owner and must return it to the pool.
func TestDroppedPacketsRecycled(t *testing.T) {
	s := sim.New(1)
	l := New(s, Config{RateBps: 1e6, BufferPackets: 1}, func(p *packet.Packet) {
		s.PacketPool().Release(p)
	})
	pool := s.PacketPool()
	for i := int64(0); i < 10; i++ {
		l.Enqueue(pool.NewData(1, i, packet.MSS, packet.NotECT))
	}
	s.Run()
	st := pool.Stats()
	// 1 in transmitter + 1 queued + 8 overflow-dropped; the first drop
	// seeds the free list, so every later emission reuses its slot and at
	// most 3 fresh packets are ever allocated.
	if st.Released != 10 {
		t.Errorf("released = %d, want 10", st.Released)
	}
	if st.Allocated > 3 {
		t.Errorf("allocated %d fresh packets, want ≤ 3", st.Allocated)
	}
}

// TestOnDropObserverKeepsOwnership: with OnDrop set the observer owns the
// dropped packet (tests retain them), so the link must not recycle it.
func TestOnDropObserverKeepsOwnership(t *testing.T) {
	s := sim.New(1)
	l := New(s, Config{RateBps: 1e6, BufferPackets: 1}, func(p *packet.Packet) {})
	var dropped []*packet.Packet
	l.OnDrop = func(p *packet.Packet, _ DropReason) { dropped = append(dropped, p) }
	pool := s.PacketPool()
	for i := int64(0); i < 5; i++ {
		l.Enqueue(pool.NewData(1, i, packet.MSS, packet.NotECT))
	}
	s.Run()
	for _, p := range dropped {
		if p.Released() {
			t.Fatal("link recycled a packet owned by the OnDrop observer")
		}
	}
	if len(dropped) != 3 {
		t.Errorf("dropped %d, want 3", len(dropped))
	}
}

func TestRingCompaction(t *testing.T) {
	// Push/pop enough packets to force the head-index compaction path.
	s := sim.New(1)
	n := 0
	l := New(s, Config{RateBps: 1e9}, func(*packet.Packet) { n++ })
	for i := int64(0); i < 5000; i++ {
		l.Enqueue(mkData(1, i))
		if i%3 == 0 {
			s.RunUntil(s.Now() + 100*time.Microsecond)
		}
	}
	s.Run()
	if n != 5000 {
		t.Errorf("delivered %d, want 5000", n)
	}
}

// TestPoisonedPacketBreaksSerialization: a queued packet released behind
// the link's back must not be serialized. Poison gives it a negative wire
// length, so its transmission delay is negative and scheduling it panics;
// the bit count must not wrap to a plausible (zero) delay in int32.
func TestPoisonedPacketBreaksSerialization(t *testing.T) {
	s := sim.New(1)
	pool := s.PacketPool()
	pool.Poison = true
	l := New(s, Config{RateBps: 12e6}, pool.Release)
	l.Enqueue(pool.NewData(1, 0, packet.MSS, packet.NotECT)) // serializing
	p := pool.NewData(1, 1, packet.MSS, packet.NotECT)
	l.Enqueue(p)    // queued behind it
	pool.Release(p) // use-after-release: the link still holds p
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("link serialized a poisoned packet")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "before now") {
			t.Fatalf("want a negative-delay panic, got: %v", msg)
		}
	}()
	s.Run()
}
