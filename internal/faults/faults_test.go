package faults

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"pi2/internal/link"
	"pi2/internal/packet"
	"pi2/internal/sim"
)

// TestGilbertElliottMatchesClosedForm drives the two-state chain for many
// packets and checks the empirical loss rate and mean burst length against
// the stationary closed forms: loss = π_bad·LossBad + π_good·LossGood with
// π_bad = PGB/(PGB+PBG), and mean burst length 1/PBG (for LossBad=1).
func TestGilbertElliottMatchesClosedForm(t *testing.T) {
	cases := []struct{ pgb, pbg float64 }{
		{0.002, 0.25},
		{0.01, 0.1},
		{0.05, 0.5},
	}
	const n = 400000
	for _, c := range cases {
		ge := &GilbertElliott{PGB: c.pgb, PBG: c.pbg, LossBad: 1}
		rng := rand.New(rand.NewSource(42))
		losses, bursts := 0, 0
		inBurst := false
		for i := 0; i < n; i++ {
			if ge.Lose(rng) {
				losses++
				if !inBurst {
					bursts++
					inBurst = true
				}
			} else {
				inBurst = false
			}
		}
		wantLoss := ge.StationaryLoss()
		gotLoss := float64(losses) / n
		if rel := math.Abs(gotLoss-wantLoss) / wantLoss; rel > 0.1 {
			t.Errorf("(p=%v r=%v): empirical loss %.5f vs stationary %.5f (rel %.3f)",
				c.pgb, c.pbg, gotLoss, wantLoss, rel)
		}
		wantBurst := ge.MeanBurstLen()
		gotBurst := float64(losses) / float64(bursts)
		if rel := math.Abs(gotBurst-wantBurst) / wantBurst; rel > 0.1 {
			t.Errorf("(p=%v r=%v): empirical burst %.3f vs 1/r %.3f (rel %.3f)",
				c.pgb, c.pbg, gotBurst, wantBurst, rel)
		}
	}
}

func TestGilbertElliottDegenerateParams(t *testing.T) {
	// A chain that never transitions reports the good-state loss.
	ge := &GilbertElliott{LossGood: 0.3}
	if got := ge.StationaryLoss(); got != 0.3 {
		t.Errorf("frozen chain stationary loss %v, want 0.3", got)
	}
	if got := (&GilbertElliott{PGB: 0.1}).MeanBurstLen(); !math.IsInf(got, 1) {
		t.Errorf("PBG=0 mean burst %v, want +Inf", got)
	}
}

func TestIIDLossRate(t *testing.T) {
	m := IIDLoss{P: 0.05}
	rng := rand.New(rand.NewSource(7))
	losses := 0
	const n = 200000
	for i := 0; i < n; i++ {
		if m.Lose(rng) {
			losses++
		}
	}
	if f := float64(losses) / n; math.Abs(f-0.05) > 0.005 {
		t.Errorf("empirical loss %.4f, want ~0.05", f)
	}
}

// TestInjectorConservation runs a lossy, reordering, duplicating channel
// behind a real link and balances the packet ledger: every packet the link
// delivered is either forwarded (possibly late), duplicated into existence,
// or dropped by the channel — and dropped packets go back to the pool
// exactly once.
func TestInjectorConservation(t *testing.T) {
	s := sim.New(3)
	received := 0
	cfg := Config{
		Loss:          IIDLoss{P: 0.1},
		ReorderProb:   0.05,
		ReorderDelay:  2 * time.Millisecond,
		ReorderJitter: time.Millisecond,
		DupProb:       0.05,
	}
	var inj *Injector
	inj = NewInjector(s, cfg, func(p *packet.Packet) {
		received++
		s.PacketPool().Release(p)
	})
	l := link.New(s, link.Config{RateBps: 100e6}, inj.Deliver)
	pool := s.PacketPool()
	for i := 0; i < 2000; i++ {
		seq := int64(i)
		s.At(time.Duration(i)*100*time.Microsecond, func() {
			l.Enqueue(pool.NewData(1, seq, packet.MSS, packet.NotECT))
		})
	}
	s.Run()

	if v := l.Audit().Violations(); v != nil {
		t.Fatalf("link auditor violations with faults active: %v", v)
	}
	if inj.Dropped == 0 || inj.Duplicated == 0 || inj.Reordered == 0 {
		t.Fatalf("channel did not exercise all impairments: %+v", inj)
	}
	delivered := l.Audit().DeliveredPackets
	if got := delivered + inj.Duplicated - inj.Dropped; got != inj.Forwarded {
		t.Errorf("forwarded %d != delivered %d + dup %d - dropped %d",
			inj.Forwarded, delivered, inj.Duplicated, inj.Dropped)
	}
	if received != inj.Forwarded {
		t.Errorf("receiver saw %d packets, injector forwarded %d", received, inj.Forwarded)
	}
	// Every packet was released exactly once: drops by the injector, the
	// rest by the receiving callback.
	if rel := pool.Stats().Released; rel != uint64(received+inj.Dropped) {
		t.Errorf("pool releases %d, want received %d + dropped %d", rel, received, inj.Dropped)
	}
}

// TestInjectorOnDropOwnership: an OnDrop observer takes ownership of lost
// packets, so the pool must not see them.
func TestInjectorOnDropOwnership(t *testing.T) {
	s := sim.New(4)
	inj := NewInjector(s, Config{Loss: IIDLoss{P: 1}}, func(p *packet.Packet) {
		t.Error("lossless delivery through a P=1 channel")
	})
	var seen int
	inj.OnDrop = func(p *packet.Packet, r link.DropReason) {
		if r != link.DropFault {
			t.Errorf("drop reason %v, want DropFault", r)
		}
		if p.Released() {
			t.Error("OnDrop received a released packet")
		}
		seen++
	}
	pool := s.PacketPool()
	for i := 0; i < 10; i++ {
		inj.Deliver(pool.NewData(1, int64(i), packet.MSS, packet.NotECT))
	}
	if seen != 10 || inj.Dropped != 10 {
		t.Errorf("observer saw %d, counter %d, want 10", seen, inj.Dropped)
	}
	if rel := pool.Stats().Released; rel != 0 {
		t.Errorf("pool saw %d releases despite observer ownership", rel)
	}
}

// TestInjectorDeterminism: the same seed must produce the identical fault
// pattern — counters and all.
func TestInjectorDeterminism(t *testing.T) {
	run := func() (int, int, int, int) {
		s := sim.New(9)
		var got []int64
		var inj *Injector
		inj = NewInjector(s, Config{
			Loss:         &GilbertElliott{PGB: 0.01, PBG: 0.2, LossBad: 1},
			ReorderProb:  0.05,
			ReorderDelay: time.Millisecond,
			DupProb:      0.02,
		}, func(p *packet.Packet) {
			got = append(got, p.Seq)
			s.PacketPool().Release(p)
		})
		pool := s.PacketPool()
		for i := 0; i < 5000; i++ {
			seq := int64(i)
			s.At(time.Duration(i)*50*time.Microsecond, func() {
				inj.Deliver(pool.NewData(1, seq, packet.MSS, packet.NotECT))
			})
		}
		s.Run()
		sum := int64(0)
		for _, v := range got {
			sum += v
		}
		return inj.Dropped, inj.Duplicated, inj.Reordered, int(sum % 1000003)
	}
	d1, u1, r1, s1 := run()
	d2, u2, r2, s2 := run()
	if d1 != d2 || u1 != u2 || r1 != r2 || s1 != s2 {
		t.Errorf("same seed diverged: (%d,%d,%d,%d) vs (%d,%d,%d,%d)",
			d1, u1, r1, s1, d2, u2, r2, s2)
	}
	if d1 == 0 || u1 == 0 || r1 == 0 {
		t.Errorf("impairments not exercised: drops=%d dups=%d reorders=%d", d1, u1, r1)
	}
}

// TestRateSchedules checks the three schedule shapes against a recording
// rate setter.
func TestRateSchedules(t *testing.T) {
	t.Run("square", func(t *testing.T) {
		s := sim.New(1)
		rs := &recordingSetter{rate: 40e6}
		Square{HighBps: 40e6, LowBps: 10e6, Period: 10 * time.Millisecond}.Apply(s, rs)
		s.RunUntil(25 * time.Millisecond)
		// Half-period toggles at 5,10,15,20,25 ms: low,high,low,high,low.
		want := []float64{10e6, 40e6, 10e6, 40e6, 10e6}
		if len(rs.sets) != len(want) {
			t.Fatalf("%d rate changes, want %d (%v)", len(rs.sets), len(want), rs.sets)
		}
		for i, w := range want {
			if rs.sets[i] != w {
				t.Errorf("toggle %d: %v, want %v", i, rs.sets[i], w)
			}
		}
	})
	t.Run("steps", func(t *testing.T) {
		s := sim.New(1)
		rs := &recordingSetter{rate: 100e6}
		Steps{
			{At: 5 * time.Millisecond, RateBps: 20e6},
			{At: 10 * time.Millisecond, RateBps: 80e6},
		}.Apply(s, rs)
		s.Run()
		if len(rs.sets) != 2 || rs.sets[0] != 20e6 || rs.sets[1] != 80e6 {
			t.Errorf("steps applied %v", rs.sets)
		}
	})
	t.Run("ramp", func(t *testing.T) {
		s := sim.New(1)
		rs := &recordingSetter{rate: 10e6}
		Ramp{FromBps: 10e6, ToBps: 50e6, Start: 0, Length: 100 * time.Millisecond}.Apply(s, rs)
		s.RunUntil(200 * time.Millisecond)
		if len(rs.sets) == 0 {
			t.Fatal("ramp applied no steps")
		}
		for i := 1; i < len(rs.sets); i++ {
			if rs.sets[i] < rs.sets[i-1] {
				t.Fatalf("ramp not monotone: %v", rs.sets)
			}
		}
		if final := rs.sets[len(rs.sets)-1]; final != 50e6 {
			t.Errorf("ramp ended at %v, want 50e6", final)
		}
	})
}

type recordingSetter struct {
	rate float64
	sets []float64
}

func (r *recordingSetter) SetRateBps(v float64) { r.rate = v; r.sets = append(r.sets, v) }
func (r *recordingSetter) RateBps() float64     { return r.rate }

// TestCloneOwnsItsSACKBlocks: a duplicate must not share the original's
// SACK blocks. The original is released and its pool slot reused by an ACK
// whose blocks are written into the storage the slot last carried; the
// clone must keep the blocks it was given.
func TestCloneOwnsItsSACKBlocks(t *testing.T) {
	s := sim.New(5)
	inj := NewInjector(s, Config{}, func(*packet.Packet) {})
	pool := s.PacketPool()
	ack := pool.NewAck(1, 100)
	ack.SACK = &packet.SACKBlocks{N: 2, Blocks: [packet.MaxSACKBlocks][2]int64{{3, 5}, {7, 9}}}
	want := *ack.SACK
	cp := inj.clone(ack)
	if cp == ack || cp.FlowID != 1 || cp.Ack != 100 || !cp.Flags.Has(packet.FlagACK) {
		t.Fatalf("clone = %v, want a distinct copy of %v", cp, ack)
	}

	blocks := ack.SACK
	pool.Release(ack)
	reuse := pool.NewAck(2, 200)
	if reuse != ack {
		t.Fatal("pool did not hand the released slot out again")
	}
	reuse.SACK = blocks
	reuse.SACK.N = 1
	reuse.SACK.Blocks[0] = [2]int64{40, 41}

	if *cp.SACK != want {
		t.Errorf("clone's SACK blocks changed with the original's slot: %v, want %v",
			cp.SACK.Ranges(), want.Ranges())
	}
	if cp.FlowID != 1 || cp.Ack != 100 {
		t.Errorf("clone's header changed with the original's slot: %v", cp)
	}
}
