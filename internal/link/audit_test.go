package link

import (
	"strings"
	"testing"
	"time"

	"pi2/internal/aqm"
	"pi2/internal/packet"
	"pi2/internal/sim"
)

// TestAuditCleanRun drives a link through overflow drops, AQM drops and a
// CoDel-style head drop; the always-on auditor must see zero violations and
// its byte/packet ledgers must balance exactly.
func TestAuditCleanRun(t *testing.T) {
	s := sim.New(1)
	drops := &dropNth{n: 3}
	var delivered int
	l := New(s, Config{RateBps: 12e6, BufferPackets: 4, AQM: drops},
		func(p *packet.Packet) { delivered++ })
	for i := 0; i < 10; i++ {
		l.Enqueue(mkData(1, int64(i))) // forces overflow past 4 queued
	}
	s.Run()

	a := l.Audit()
	if v := a.Violations(); v != nil {
		t.Fatalf("clean run reported violations: %v", v)
	}
	if a.OfferedPackets != 10 {
		t.Errorf("offered %d, want 10", a.OfferedPackets)
	}
	if a.AcceptedPackets+a.DroppedPackets != a.OfferedPackets {
		t.Errorf("accepted %d + dropped %d != offered %d",
			a.AcceptedPackets, a.DroppedPackets, a.OfferedPackets)
	}
	if a.DeliveredPackets != delivered {
		t.Errorf("auditor delivered %d, callback saw %d", a.DeliveredPackets, delivered)
	}
	if a.DeliveredBytes != a.AcceptedBytes {
		t.Errorf("run drained: delivered %d B != accepted %d B", a.DeliveredBytes, a.AcceptedBytes)
	}
}

// TestAuditHeadDropConservation exercises the dequeue-time drop path: CoDel
// head drops leave the backlog without a dequeue, and the auditor's split
// accounting must keep every identity exact.
func TestAuditHeadDropConservation(t *testing.T) {
	s := sim.New(2)
	// CoDel at an absurdly low target so it head-drops aggressively.
	cd := aqm.NewCoDel(aqm.CoDelConfig{Target: time.Microsecond, Interval: time.Millisecond})
	l := New(s, Config{RateBps: 1e6, BufferPackets: 1000, AQM: cd},
		func(p *packet.Packet) {})
	for i := 0; i < 200; i++ {
		at := time.Duration(i) * 100 * time.Microsecond // 10x overload
		seq := int64(i)
		s.At(at, func() { l.Enqueue(mkData(1, seq)) })
	}
	s.Run()
	a := l.Audit()
	if v := a.Violations(); v != nil {
		t.Fatalf("head-drop run reported violations: %v", v)
	}
	if l.TotalDrops() == 0 {
		t.Fatal("test did not exercise drops")
	}
	if a.DroppedPackets != l.TotalDrops() {
		t.Errorf("auditor drops %d != link drops %d", a.DroppedPackets, l.TotalDrops())
	}
}

// TestAuditFlagsBadMark proves the ECN-sanity check fires: an AQM that
// CE-marks Not-ECT traffic is a protocol violation the auditor must report.
func TestAuditFlagsBadMark(t *testing.T) {
	s := sim.New(3)
	l := New(s, Config{RateBps: 12e6, AQM: &markAll{}}, func(p *packet.Packet) {})
	l.Enqueue(mkData(1, 0)) // Not-ECT
	s.Run()
	v := l.Audit().Violations()
	if len(v) == 0 {
		t.Fatal("marking Not-ECT traffic went unreported")
	}
	if !strings.Contains(v[0], "ECN sanity") {
		t.Errorf("violation %q does not name the ECN invariant", v[0])
	}
	if msg := l.Audit().Err("link"); !strings.Contains(msg, "invariant violation") {
		t.Errorf("Err() report malformed: %q", msg)
	}

	// The same AQM marking ECT traffic is legitimate and must stay clean.
	s2 := sim.New(3)
	l2 := New(s2, Config{RateBps: 12e6, AQM: &markAll{}}, func(p *packet.Packet) {})
	l2.Enqueue(packet.NewData(1, 0, packet.MSS, packet.ECT0))
	s2.Run()
	if v := l2.Audit().Violations(); v != nil {
		t.Errorf("marking ECT(0) flagged: %v", v)
	}
}

// TestAuditViolationCap: a persistently broken invariant must not grow the
// report without bound.
func TestAuditViolationCap(t *testing.T) {
	var a Auditor
	p := packet.NewData(1, 0, packet.MSS, packet.NotECT)
	for i := 0; i < 100; i++ {
		a.marked(p, time.Duration(i))
	}
	v := a.Violations()
	if len(v) > maxViolations+1 {
		t.Fatalf("report has %d entries, cap is %d", len(v), maxViolations)
	}
	if !strings.Contains(v[len(v)-1], "further violations") {
		t.Errorf("overflow summary missing: %v", v[len(v)-1])
	}
}

// TestAuditClockMonotone: the auditor flags a link event that observes time
// running backwards (fed directly; the simulator itself refuses to produce
// one — see sim.Step's monotone-clock panic).
func TestAuditClockMonotone(t *testing.T) {
	var a Auditor
	p := packet.NewData(1, 0, packet.MSS, packet.ECT0)
	a.offered(p, 5*time.Millisecond)
	a.offered(p, 3*time.Millisecond)
	v := a.Violations()
	if len(v) != 1 || !strings.Contains(v[0], "monotone clock") {
		t.Fatalf("backwards clock not flagged: %v", v)
	}
}

// TestAuditMarksByFlow: the per-flow mark ledger is indexed by the dense flow
// id; ids never marked, beyond the table, or negative read 0, and once every
// flow has been marked the mark path allocates nothing.
func TestAuditMarksByFlow(t *testing.T) {
	var a Auditor
	if got := a.MarksForFlow(3); got != 0 {
		t.Errorf("empty ledger: flow 3 has %d marks", got)
	}
	pkts := map[int]*packet.Packet{}
	for _, id := range []int{0, 5, 2} {
		pkts[id] = packet.NewData(id, 0, packet.MSS, packet.ECT1)
	}
	for _, id := range []int{5, 0, 5, 2, 5} {
		a.marked(pkts[id], 0)
	}
	for id, want := range map[int]int{0: 1, 1: 0, 2: 1, 5: 3, 6: 0, 1 << 40: 0, -1: 0} {
		if got := a.MarksForFlow(id); got != want {
			t.Errorf("flow %d: %d marks, want %d", id, got, want)
		}
	}
	if a.MarkedPackets != 5 || a.Violations() != nil {
		t.Errorf("marked %d (want 5), violations %v", a.MarkedPackets, a.Violations())
	}
	if n := testing.AllocsPerRun(100, func() { a.marked(pkts[5], 0) }); n != 0 {
		t.Errorf("marking a known flow allocates %.1f times", n)
	}
}
