package core

import (
	"math/rand"
	"testing"
	"time"

	"pi2/internal/aqm"
	"pi2/internal/packet"
	"pi2/internal/sim"
)

// Same-seed twin equivalence: one PI2 driven through the packet interface,
// one through the FastForwarder interface; verdict streams and the p′
// trajectory must be bit-identical, for both squaring forms.

// verdictOf folds a one-packet FFDecideN result back into a Verdict.
func verdictOf(accepted, marked, dropped int) Verdict {
	switch {
	case dropped == 1:
		return aqm.Drop
	case marked == 1:
		return aqm.Mark
	case accepted == 1:
		return aqm.Accept
	}
	panic("verdictOf: not a one-packet batch")
}

type ffFakeQueue struct {
	sojourn time.Duration
}

func (f *ffFakeQueue) BacklogBytes() int                       { return 0 }
func (f *ffFakeQueue) BacklogPackets() int                     { return 0 }
func (f *ffFakeQueue) HeadSojourn(time.Duration) time.Duration { return f.sojourn }
func (f *ffFakeQueue) CapacityBps() float64                    { return 0 }

func ffECN(i int) packet.ECN {
	switch i % 4 {
	case 0:
		return packet.NotECT
	case 1:
		return packet.ECT0
	case 2:
		return packet.ECT1
	default:
		return packet.CE
	}
}

func TestPI2FastForwardTwinEquivalence(t *testing.T) {
	for _, useMul := range []bool{false, true} {
		name := "two-draw"
		if useMul {
			name = "multiply"
		}
		t.Run(name, func(t *testing.T) {
			seed := int64(23)
			pkt := New(Config{UseMultiply: useMul}, rand.New(rand.NewSource(seed)))
			ff := New(Config{UseMultiply: useMul}, rand.New(rand.NewSource(seed)))
			q := &ffFakeQueue{}
			delays := []time.Duration{
				25 * time.Millisecond, 60 * time.Millisecond, 15 * time.Millisecond,
				0, 35 * time.Millisecond, 22 * time.Millisecond,
			}
			for step := 0; step < 300; step++ {
				qd := delays[step%len(delays)]
				q.sojourn = qd
				pkt.Update(q, 0)
				ff.FFUpdate(qd)
				if pkt.PPrime() != ff.PPrime() {
					t.Fatalf("step %d: p' diverged: %g vs %g", step, pkt.PPrime(), ff.PPrime())
				}
				for i := 0; i < 9; i++ {
					ecn := ffECN(i)
					vp := pkt.Enqueue(packet.NewData(1, 0, packet.MSS, ecn), q, 0)
					vf := verdictOf(ff.FFDecideN(ecn, 0, 1))
					if vp != vf {
						t.Fatalf("step %d pkt %d (%v): verdict diverged: %v vs %v",
							step, i, ecn, vp, vf)
					}
				}
			}
		})
	}
}

// TestPI2FFDecideNMatchesEnqueue: for both squaring forms, every ECN
// codepoint and batch sizes 0, 1, 2, 7 and 64, FFDecideN(n) returns the
// counts of n Enqueue verdicts from a same-seed twin and leaves the
// generator where those Enqueue calls leave it.
func TestPI2FFDecideNMatchesEnqueue(t *testing.T) {
	for _, useMul := range []bool{false, true} {
		single := New(Config{UseMultiply: useMul}, rand.New(rand.NewSource(29)))
		batch := New(Config{UseMultiply: useMul}, rand.New(rand.NewSource(29)))
		q := &ffFakeQueue{}
		var marks, drops int
		for step := 0; step < 60; step++ {
			q.sojourn = time.Duration(step%8) * 10 * time.Millisecond
			single.Update(q, 0)
			batch.Update(q, 0)
			for i := 0; i < 4; i++ {
				ecn := ffECN(i)
				for _, n := range []int{0, 1, 2, 7, 64} {
					var acc, mk, dr int
					for k := 0; k < n; k++ {
						switch single.Enqueue(packet.NewData(1, 0, packet.MSS, ecn), q, 0) {
						case aqm.Accept:
							acc++
						case aqm.Mark:
							acc++
							mk++
						case aqm.Drop:
							dr++
						}
					}
					gotAcc, gotMk, gotDr := batch.FFDecideN(ecn, 0, n)
					if gotAcc != acc || gotMk != mk || gotDr != dr {
						t.Fatalf("multiply=%v step %d %v n=%d: FFDecideN = (%d, %d, %d), Enqueue twin (%d, %d, %d)",
							useMul, step, ecn, n, gotAcc, gotMk, gotDr, acc, mk, dr)
					}
					if a, b := single.rng.Float64(), batch.rng.Float64(); a != b {
						t.Fatalf("multiply=%v step %d %v n=%d: next draw diverged", useMul, step, ecn, n)
					}
					marks += gotMk
					drops += gotDr
				}
			}
		}
		if marks == 0 || drops == 0 {
			t.Fatalf("multiply=%v: draws not exercised: %d marks, %d drops", useMul, marks, drops)
		}
	}
}

func TestPI2FFTarget(t *testing.T) {
	var iface aqm.FastForwarder = New(Config{}, rand.New(rand.NewSource(1)))
	if got := iface.FFTarget(); got != 20*time.Millisecond {
		t.Fatalf("target = %v", got)
	}
}

// TestDualLinkFFUpdate checks the dual-queue control-law stepping hook
// matches a bare PICore twin with the DualPI2 gains and cap: the ff engine
// never fast-forwards dualpi2 epochs, but the hook must still step p′
// exactly as the periodic update would for the same delay observations.
func TestDualLinkFFUpdate(t *testing.T) {
	s := sim.New(1)
	d := NewDualLink(s, 1e8, DualConfig{}, func(p *packet.Packet) {
		s.PacketPool().Release(p)
	})
	cfg := Config{}
	cfg.setDefaults()
	twin := aqm.PICore{
		Alpha:  cfg.Alpha,
		Beta:   cfg.Beta,
		Target: cfg.Target,
		PMax:   pMaxFor(cfg.MaxClassicProb),
	}
	for step := 0; step < 100; step++ {
		qd := time.Duration(step%7) * 10 * time.Millisecond
		d.FFUpdate(qd)
		twin.Update(qd)
		if d.PPrime() != twin.P() {
			t.Fatalf("step %d: p' = %g, twin %g", step, d.PPrime(), twin.P())
		}
	}
}
