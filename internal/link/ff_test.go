package link

import (
	"math/rand"
	"testing"
	"time"

	"pi2/internal/aqm"
	"pi2/internal/packet"
	"pi2/internal/sim"
	"pi2/internal/stats"
)

// TestLinkFFApplyCountersAndIdentity: virtual traffic lands in the link
// counters while preserving enqueues = dequeues + drops + backlog, and the
// histogram absorbs the bulk sojourn insert.
func TestLinkFFApplyCountersAndIdentity(t *testing.T) {
	s := sim.New(1)
	l := New(s, Config{
		RateBps: 1e7,
		AQM:     aqm.NewPI(aqm.PIConfig{}, rand.New(rand.NewSource(1))),
		Sojourn: stats.NewDelayHistogram(),
	}, func(p *packet.Packet) { s.PacketPool().Release(p) })

	// One real packet stays in the backlog across the patch.
	l.Enqueue(s.PacketPool().NewData(1, 0, packet.MSS, packet.NotECT))
	l.Enqueue(s.PacketPool().NewData(1, 1, packet.MSS, packet.NotECT))

	l.FFApply(1000, 30, 5, 21*time.Millisecond)

	if got := l.Enqueues() - l.Dequeues() - l.TotalDrops() - l.BacklogPackets(); got != 0 {
		t.Fatalf("conservation broken by %d (enq=%d deq=%d drops=%d backlog=%d)",
			got, l.Enqueues(), l.Dequeues(), l.TotalDrops(), l.BacklogPackets())
	}
	if l.Marks() != 30 || l.Drops(DropAQM) != 5 {
		t.Fatalf("marks=%d drops=%d", l.Marks(), l.Drops(DropAQM))
	}
	if got := l.Delivered.Bytes(); got != int64(1000*packet.FullLen) {
		t.Fatalf("delivered bytes = %d", got)
	}
	if l.Sojourn.N() != 1001 { // 1000 virtual + 1 real dequeue
		t.Fatalf("sojourn samples = %d", l.Sojourn.N())
	}
	if v := l.Audit().Violations(); v != nil {
		t.Fatalf("auditor disturbed: %v", v)
	}
}

// TestLinkFFShift: queued packets' enqueue timestamps translate so post-jump
// sojourns stay correct, and the AQM's measurement cycle shifts with them.
func TestLinkFFShift(t *testing.T) {
	s := sim.New(1)
	pe := aqm.NewPIE(aqm.DefaultPIEConfig(), rand.New(rand.NewSource(1)))
	l := New(s, Config{RateBps: 1e6, AQM: pe},
		func(p *packet.Packet) { s.PacketPool().Release(p) })
	for i := 0; i < 5; i++ {
		l.Enqueue(s.PacketPool().NewData(1, int64(i), packet.MSS, packet.NotECT))
	}
	head := l.q.(*fifo).buf[l.q.(*fifo).head].EnqueuedAt
	soj := l.HeadSojourn(s.Now())

	const delta = 3 * time.Second
	s.ShiftPending(delta)
	l.FFShift(delta)

	if got := l.q.(*fifo).buf[l.q.(*fifo).head].EnqueuedAt; got != head+delta {
		t.Fatalf("head EnqueuedAt = %v, want %v", got, head+delta)
	}
	if got := l.HeadSojourn(s.Now()); got != soj {
		t.Fatalf("head sojourn changed across shift: %v vs %v", got, soj)
	}
	// Draining the backlog after the shift must not report inflated
	// sojourns or violate any auditor invariant. (Bounded run: the AQM's
	// recurring update keeps the schedule non-empty forever.)
	s.RunUntil(delta + time.Second)
	if v := l.Audit().Violations(); v != nil {
		t.Fatalf("violations after shifted drain: %v", v)
	}
	if got := l.Sojourn.Max(); got > 1.0 {
		t.Fatalf("post-shift sojourn inflated: %gs", got)
	}
}

func TestLinkFFAQM(t *testing.T) {
	s := sim.New(1)
	withPI := New(s, Config{RateBps: 1e6, AQM: aqm.NewPI(aqm.PIConfig{}, rand.New(rand.NewSource(1)))},
		func(p *packet.Packet) { s.PacketPool().Release(p) })
	if _, ok := withPI.FFAQM(); !ok {
		t.Fatal("PI must expose a FastForwarder")
	}
	tail := New(s, Config{RateBps: 1e6}, func(p *packet.Packet) { s.PacketPool().Release(p) })
	if _, ok := tail.FFAQM(); ok {
		t.Fatal("tail-drop must not expose a FastForwarder")
	}
}
