package core

import (
	"testing"
	"time"

	"pi2/internal/link"
	"pi2/internal/packet"
	"pi2/internal/sim"
)

// collect runs a DualLink inside a simulator and gathers delivered packets.
func newDualHarness(seed int64, rateBps float64, cfg DualConfig) (*sim.Simulator, *DualLink, *[]*packet.Packet) {
	s := sim.New(seed)
	var delivered []*packet.Packet
	d := NewDualLink(s, rateBps, cfg, func(p *packet.Packet) {
		delivered = append(delivered, p)
	})
	return s, d, &delivered
}

func TestDualClassifiesByECN(t *testing.T) {
	s, d, delivered := newDualHarness(1, 1e9, DualConfig{})
	d.Enqueue(packet.NewData(1, 0, packet.MSS, packet.ECT1))
	d.Enqueue(packet.NewData(2, 0, packet.MSS, packet.NotECT))
	s.RunUntil(5 * time.Second)
	if len(*delivered) != 2 {
		t.Fatalf("delivered %d", len(*delivered))
	}
}

func TestDualLQueuePriority(t *testing.T) {
	// Fill the C queue, then add one L packet: it must jump the line
	// (TShift priority) even though it arrived last.
	s, d, delivered := newDualHarness(1, 1e6, DualConfig{}) // slow link
	for i := 0; i < 20; i++ {
		d.Enqueue(packet.NewData(1, int64(i), packet.MSS, packet.NotECT))
	}
	d.Enqueue(packet.NewData(2, 0, packet.MSS, packet.ECT1))
	s.RunUntil(5 * time.Second)
	// One C packet is already in the transmitter when L arrives; the L
	// packet must come no later than second.
	pos := -1
	for i, p := range *delivered {
		if p.FlowID == 2 {
			pos = i
		}
	}
	if pos < 0 || pos > 1 {
		t.Errorf("L packet delivered at position %d, want <= 1", pos)
	}
}

func TestDualTShiftPreventsCStarvation(t *testing.T) {
	// Keep the L queue constantly busy; C packets must still trickle out
	// once their head age exceeds TShift.
	cfg := DualConfig{TShift: 5 * time.Millisecond}
	s, d, delivered := newDualHarness(1, 1e6, cfg) // 1 Mb/s: 12 ms per pkt
	stop := s.Every(time.Millisecond, func() {
		d.Enqueue(packet.NewData(2, 0, 100, packet.ECT1))
	})
	d.Enqueue(packet.NewData(1, 0, packet.MSS, packet.NotECT))
	s.RunUntil(200 * time.Millisecond)
	stop.Stop()
	sawC := false
	for _, p := range *delivered {
		if p.FlowID == 1 {
			sawC = true
		}
	}
	if !sawC {
		t.Error("C queue starved despite TShift")
	}
}

func TestDualNativeRampMarksDeepLQueue(t *testing.T) {
	cfg := DualConfig{LThreshMin: time.Millisecond, LThreshMax: 2 * time.Millisecond}
	s, d, delivered := newDualHarness(1, 1e6, cfg)
	// Burst 50 L packets: the later ones wait >> 2 ms at 1 Mb/s and must
	// be CE-marked by the native ramp even though p' is still 0.
	for i := 0; i < 50; i++ {
		d.Enqueue(packet.NewData(2, int64(i), packet.MSS, packet.ECT1))
	}
	s.RunUntil(5 * time.Second)
	marked := 0
	for _, p := range *delivered {
		if p.ECN == packet.CE {
			marked++
		}
	}
	if marked < 25 {
		t.Errorf("ramp marked %d of 50, want most of the deep queue", marked)
	}
	l, c := d.Marks()
	if l != marked || c != 0 {
		t.Errorf("mark counters l=%d c=%d, want l=%d c=0", l, c, marked)
	}
}

func TestDualBufferOverflowDrops(t *testing.T) {
	cfg := DualConfig{BufferPackets: 10}
	s, d, _ := newDualHarness(1, 1e6, cfg)
	for i := 0; i < 30; i++ {
		d.Enqueue(packet.NewData(1, int64(i), packet.MSS, packet.NotECT))
	}
	if d.TotalDrops() == 0 {
		t.Error("no drops beyond the buffer limit")
	}
	s.RunUntil(5 * time.Second)
}

func TestDualClassicSquaredDropAtEnqueue(t *testing.T) {
	s, d, _ := newDualHarness(1, 1e9, DualConfig{})
	d.core.SetP(0.5) // classic prob 25 %
	drops := 0
	const n = 8000
	for i := 0; i < n; i++ {
		before := d.TotalDrops()
		d.Enqueue(packet.NewData(1, int64(i), packet.MSS, packet.NotECT))
		if d.TotalDrops() > before {
			drops++
		}
	}
	f := float64(drops) / n
	if f < 0.2 || f > 0.3 {
		t.Errorf("classic drop rate %.3f, want ~0.25", f)
	}
	s.RunUntil(5 * time.Second)
}

func TestDualPPrimeRisesWithCQueue(t *testing.T) {
	s, d, _ := newDualHarness(1, 1e5, DualConfig{}) // 100 kb/s: deep queue
	for i := 0; i < 100; i++ {
		d.Enqueue(packet.NewData(1, int64(i), packet.MSS, packet.NotECT))
	}
	s.RunUntil(2 * time.Second)
	if d.PPrime() == 0 {
		t.Error("p' stayed 0 with a standing Classic queue")
	}
}

// TestDualAuditorConservation: DualPI2's own verdicts — Classic squared
// drops and marks at admit, coupled L marks at dequeue — reach the link's
// auditor, and the L/C mark split adds up to the marks it ledgered. (The
// transmit path around them is link.TestTransmitPath's.)
func TestDualAuditorConservation(t *testing.T) {
	s, d, _ := newDualHarness(1, 1e6, DualConfig{BufferPackets: 150})
	d.core.SetP(0.3)
	for i := 0; i < 60; i++ {
		d.Enqueue(packet.NewData(1, int64(i), packet.MSS, packet.NotECT))
		d.Enqueue(packet.NewData(2, int64(i), packet.MSS, packet.ECT0))
		d.Enqueue(packet.NewData(3, int64(i), packet.MSS, packet.ECT1))
	}
	s.RunUntil(10 * time.Second)
	a := d.Audit()
	if msg := a.Err("duallink"); msg != "" {
		t.Fatal(msg)
	}
	l, c := d.Marks()
	if l == 0 || c == 0 || d.Drops(link.DropAQM) == 0 {
		t.Fatalf("verdicts not exercised: L marks %d, C marks %d, squared drops %d", l, c, d.Drops(link.DropAQM))
	}
	if a.MarkedPackets != l+c || a.DroppedPackets != d.TotalDrops() {
		t.Errorf("auditor marks/drops %d/%d, link L+C marks %d, drops %d", a.MarkedPackets, a.DroppedPackets, l+c, d.TotalDrops())
	}
}
