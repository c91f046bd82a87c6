package link_test

import (
	"strings"
	"testing"
	"time"

	"pi2/internal/aqm"
	"pi2/internal/core"
	"pi2/internal/fq"
	"pi2/internal/link"
	"pi2/internal/packet"
	"pi2/internal/sim"
)

// builder makes a link of the given rate and buffer (0: the default) on s.
type builder func(s *sim.Simulator, rateBps float64, buffer int, deliver func(*packet.Packet)) *link.Link

// disciplines are the three queue disciplines the one transmitter drains.
var disciplines = []struct {
	name  string
	build builder
}{
	{"fifo-pi2", func(s *sim.Simulator, rateBps float64, buffer int, deliver func(*packet.Packet)) *link.Link {
		return link.New(s, link.Config{RateBps: rateBps, BufferPackets: buffer, AQM: core.New(core.Config{}, s.RNG())}, deliver)
	}},
	{"dualpi2", func(s *sim.Simulator, rateBps float64, buffer int, deliver func(*packet.Packet)) *link.Link {
		return core.NewDualLink(s, rateBps, core.DualConfig{BufferPackets: buffer}, deliver).Link
	}},
	{"fq-codel", func(s *sim.Simulator, rateBps float64, buffer int, deliver func(*packet.Packet)) *link.Link {
		return fq.New(s, fq.Config{RateBps: rateBps, BufferPackets: buffer}, deliver).Link
	}},
}

// mixed cycles the codepoints so every discipline's classes see traffic:
// Not-ECT and ECT(0) are Classic, ECT(1) Scalable.
var mixed = []packet.ECN{packet.NotECT, packet.ECT0, packet.ECT1}

// TestTransmitPath runs every row over every discipline: the transmitter,
// buffer bound, drop ownership, counters and auditor are one implementation,
// so they must behave the same whichever discipline feeds them.
func TestTransmitPath(t *testing.T) {
	rows := []struct {
		name string
		run  func(t *testing.T, build builder)
	}{
		{"on-drop-takes-ownership", func(t *testing.T, build builder) {
			s := sim.New(1)
			pool := s.PacketPool()
			l := build(s, 1e6, 5, func(*packet.Packet) {})
			var seen []link.DropReason
			l.OnDrop = func(p *packet.Packet, r link.DropReason) {
				if p.Released() {
					t.Error("OnDrop received an already-released packet")
				}
				seen = append(seen, r)
			}
			for i := 0; i < 20; i++ {
				l.Enqueue(pool.NewData(1, int64(i), packet.MSS, packet.NotECT))
			}
			// One serializing, five queued, the rest overflow.
			if len(seen) != 14 || l.TotalDrops() != 14 {
				t.Errorf("observer saw %d drops, counter %d, want 14", len(seen), l.TotalDrops())
			}
			for _, r := range seen {
				if r != link.DropOverflow {
					t.Errorf("drop reason %v, want overflow", r)
				}
			}
			if got := pool.Stats().Released; got != 0 {
				t.Errorf("pool saw %d releases despite the observer owning drops", got)
			}
		}},
		{"drops-return-to-pool", func(t *testing.T, build builder) {
			s := sim.New(1)
			pool := s.PacketPool()
			l := build(s, 1e6, 5, func(*packet.Packet) {})
			for i := 0; i < 20; i++ {
				l.Enqueue(pool.NewData(1, int64(i), packet.MSS, packet.NotECT))
			}
			if l.TotalDrops() != 14 {
				t.Fatalf("drops %d, want 14", l.TotalDrops())
			}
			if got := pool.Stats().Released; got != uint64(l.TotalDrops()) {
				t.Errorf("pool saw %d releases, want %d (one per drop)", got, l.TotalDrops())
			}
		}},
		{"set-rate", func(t *testing.T, build builder) {
			s := sim.New(1)
			var at []time.Duration
			l := build(s, 1e6, 0, func(*packet.Packet) { at = append(at, s.Now()) })
			l.SetRateBps(2e6)
			if l.RateBps() != 2e6 {
				t.Fatalf("RateBps = %v after SetRateBps(2e6)", l.RateBps())
			}
			l.Enqueue(packet.NewData(1, 0, packet.MSS, packet.NotECT))
			s.RunUntil(time.Second)
			// 1500 B at 2 Mb/s serializes in 6 ms, not the 12 ms of the old rate.
			if len(at) != 1 || at[0] != 6*time.Millisecond {
				t.Errorf("deliveries at %v, want [6ms]", at)
			}
		}},
		{"utilization", func(t *testing.T, build builder) {
			s := sim.New(1)
			l := build(s, 1e6, 0, func(*packet.Packet) {})
			l.Enqueue(packet.NewData(1, 0, packet.MSS, packet.NotECT))
			s.RunUntil(6 * time.Millisecond) // mid-serialization counts as busy
			if u := l.Utilization(); u < 0.99 {
				t.Errorf("utilization %v mid-packet, want 1", u)
			}
			s.RunUntil(24 * time.Millisecond) // 12 ms busy of 24
			if u := l.Utilization(); u < 0.49 || u > 0.51 {
				t.Errorf("utilization %v, want 0.5", u)
			}
		}},
		{"auditor-conservation", func(t *testing.T, build builder) {
			// 17x overload of mixed traffic for 3 s, then a drain: overflow
			// drops, AQM drops and CE marks all happen, and every identity
			// must hold throughout. (The 0.7 ms spacing keeps the codepoint
			// that finds a free slot from locking to the 12 ms departures.)
			s := sim.New(1)
			pool := s.PacketPool()
			delivered := 0
			l := build(s, 1e6, 30, func(p *packet.Packet) {
				delivered++
				pool.Release(p)
			})
			const n = 4300
			for i := 0; i < n; i++ {
				seq := int64(i)
				s.At(time.Duration(i)*700*time.Microsecond, func() {
					l.Enqueue(pool.NewData(1+int(seq%3), seq, packet.MSS, mixed[seq%3]))
				})
			}
			s.RunUntil(10 * time.Second)
			if l.Drops(link.DropOverflow) == 0 || l.Drops(link.DropAQM) == 0 || l.Marks() == 0 {
				t.Fatalf("load too tame: overflow %d, aqm %d drops, %d marks",
					l.Drops(link.DropOverflow), l.Drops(link.DropAQM), l.Marks())
			}
			a := l.Audit()
			if msg := a.Err("link"); msg != "" {
				t.Fatal(msg)
			}
			if a.OfferedPackets != n || l.Enqueues() != n {
				t.Errorf("offered %d, enqueues %d, want %d", a.OfferedPackets, l.Enqueues(), n)
			}
			if a.DroppedPackets != l.TotalDrops() || a.MarkedPackets != l.Marks() {
				t.Errorf("auditor drops/marks %d/%d, link %d/%d",
					a.DroppedPackets, a.MarkedPackets, l.TotalDrops(), l.Marks())
			}
			if a.DeliveredPackets != delivered || delivered != l.Dequeues() {
				t.Errorf("auditor delivered %d, callback %d, dequeues %d", a.DeliveredPackets, delivered, l.Dequeues())
			}
			if l.BacklogPackets() != 0 || l.Dequeues()+l.TotalDrops() != n {
				t.Errorf("drained link: %d dequeues + %d drops != %d offered, %d left queued",
					l.Dequeues(), l.TotalDrops(), n, l.BacklogPackets())
			}
		}},
		{"zero-allocs-per-packet", func(t *testing.T, build builder) {
			// Both regimes: a sparse flow that re-enters FQ's new-flow list
			// with every packet, and backlogged flows whose quantum runs out
			// (a rotation to the old list) on every packet.
			s := sim.New(1)
			pool := s.PacketPool()
			l := build(s, 1e9, 0, pool.Release)
			var seq int64
			offer := func(flow int) {
				l.Enqueue(pool.NewData(flow, seq, packet.MSS, mixed[seq%3]))
				seq++
			}
			drain := func() { s.RunUntil(s.Now() + time.Millisecond) }
			sparse := func() {
				offer(1)
				drain()
			}
			backlogged := func() {
				for flow := 1; flow <= 4; flow++ {
					offer(flow)
					offer(flow)
				}
				drain()
			}
			for i := 0; i < 64; i++ { // grow queues, lists, pool and scheduler
				sparse()
				backlogged()
			}
			if n := testing.AllocsPerRun(200, sparse); n != 0 {
				t.Errorf("sparse flow: %.2f allocs per packet, want 0", n)
			}
			if n := testing.AllocsPerRun(200, backlogged); n != 0 {
				t.Errorf("backlogged flows: %.2f allocs per 8 packets, want 0", n)
			}
			if l.BacklogPackets() != 0 {
				t.Errorf("left %d packets queued", l.BacklogPackets())
			}
		}},
		{"ff-shift-keeps-head-sojourn", func(t *testing.T, build builder) {
			s := sim.New(1)
			pool := s.PacketPool()
			l := build(s, 1e6, 0, pool.Release)
			for i := 0; i < 6; i++ {
				l.Enqueue(pool.NewData(1+i%3, int64(i), packet.MSS, mixed[i%3]))
			}
			s.RunUntil(5 * time.Millisecond)
			soj := l.HeadSojourn(s.Now())
			if soj != 5*time.Millisecond {
				t.Fatalf("head sojourn %v before the shift, want 5ms", soj)
			}
			const delta = 3 * time.Second
			s.ShiftPending(delta)
			l.FFShift(delta)
			if got := l.HeadSojourn(s.Now()); got != soj {
				t.Errorf("head sojourn %v after the shift, want %v", got, soj)
			}
			s.RunUntil(delta + time.Second)
			if msg := l.Audit().Err("link"); msg != "" {
				t.Fatal(msg)
			}
		}},
	}
	for _, row := range rows {
		for _, d := range disciplines {
			t.Run(row.name+"/"+d.name, func(t *testing.T) { row.run(t, d.build) })
		}
	}
}

// forgetful admits every packet but stores only the first one.
type forgetful struct {
	link.Ring
	stored bool
}

func (f *forgetful) Admit(_ *link.Link, p *packet.Packet, _ time.Duration) aqm.Verdict {
	if !f.stored {
		f.Push(p)
		f.stored = true
	}
	return aqm.Accept
}

func (f *forgetful) Next(*link.Link, time.Duration) (*packet.Packet, aqm.Verdict) {
	return f.Pop(), aqm.Accept
}

// TestAuditorReadsTheDiscipline: the conservation identities are checked
// against the discipline's own Len/Bytes, so one that accepts a packet and
// loses it is caught even though the link counted the packet in.
func TestAuditorReadsTheDiscipline(t *testing.T) {
	s := sim.New(1)
	l := link.NewWithQueue(s, link.Config{RateBps: 1e6}, &forgetful{}, func(*packet.Packet) {})
	l.Enqueue(packet.NewData(1, 0, packet.MSS, packet.NotECT)) // stored, then serializing
	l.Enqueue(packet.NewData(1, 1, packet.MSS, packet.NotECT)) // accepted, never stored
	v := l.Audit().Violations()
	if len(v) == 0 || !strings.Contains(v[0], "packet conservation") {
		t.Fatalf("lost packet not reported as a conservation violation: %v", v)
	}
}
