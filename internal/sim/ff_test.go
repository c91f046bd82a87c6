package sim

import (
	"testing"
	"time"

	"pi2/internal/packet"
)

// TestShiftPendingPreservesOrder checks that a shifted schedule fires the
// same callbacks in the same order at uniformly translated times.
func TestShiftPendingPreservesOrder(t *testing.T) {
	type fire struct {
		id int
		at time.Duration
	}
	run := func(shiftAt, delta time.Duration) []fire {
		s := New(1)
		var fired []fire
		for i, d := range []time.Duration{5, 3, 3, 9, 12, 7} {
			i, d := i, time.Duration(d)*time.Millisecond
			s.At(d, func() { fired = append(fired, fire{i, s.Now()}) })
		}
		s.Every(4*time.Millisecond, func() { fired = append(fired, fire{100, s.Now()}) })
		// A lane whose ring is loaded across the shift: only its head is in
		// the heap, the rest must move with it.
		ln := s.NewLane()
		for i, d := range []time.Duration{3, 3, 8, 15} {
			i, d := 200+i, time.Duration(d)*time.Millisecond
			ln.At(d, func() { fired = append(fired, fire{i, s.Now()}) })
		}
		s.RunUntil(shiftAt)
		s.ShiftPending(delta)
		s.RunUntil(20*time.Millisecond + delta)
		return fired
	}
	base := run(2*time.Millisecond, 0)
	shifted := run(2*time.Millisecond, 50*time.Millisecond)
	if len(base) != len(shifted) {
		t.Fatalf("fire counts differ: %d vs %d", len(base), len(shifted))
	}
	for i := range base {
		if base[i].id != shifted[i].id {
			t.Fatalf("order differs at %d: %v vs %v", i, base[i], shifted[i])
		}
		if shifted[i].at != base[i].at+50*time.Millisecond {
			t.Fatalf("time not translated at %d: %v vs %v", i, base[i], shifted[i])
		}
	}
}

// TestShiftPendingZeroIsNoop checks delta=0 leaves the clock and schedule
// untouched (the zero-length-epoch identity the ff engine relies on).
func TestShiftPendingZeroIsNoop(t *testing.T) {
	s := New(1)
	n := 0
	s.At(3*time.Millisecond, func() { n++ })
	s.RunUntil(time.Millisecond)
	s.ShiftPending(0)
	if s.Now() != time.Millisecond {
		t.Fatalf("clock moved: %v", s.Now())
	}
	s.RunUntil(3 * time.Millisecond)
	if n != 1 {
		t.Fatalf("event lost: fired %d times", n)
	}
}

// TestShiftPendingAdvancesClock checks the clock jumps even with an empty
// schedule and that scheduling after a shift uses the new time base.
func TestShiftPendingAdvancesClock(t *testing.T) {
	s := New(1)
	s.RunUntil(10 * time.Millisecond)
	s.ShiftPending(90 * time.Millisecond)
	if s.Now() != 100*time.Millisecond {
		t.Fatalf("now = %v, want 100ms", s.Now())
	}
	if s.NowNanos() != int64(100*time.Millisecond) {
		t.Fatalf("NowNanos = %d", s.NowNanos())
	}
	fired := time.Duration(-1)
	s.After(time.Millisecond, func() { fired = s.Now() })
	s.Run()
	if fired != 101*time.Millisecond {
		t.Fatalf("fired at %v", fired)
	}
}

func TestShiftPendingNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on negative delta")
		}
	}()
	New(1).ShiftPending(-time.Nanosecond)
}

// TestCoordinatorShiftPending checks a sharded shift translates both the
// domain schedulers and the in-flight cross-domain arrivals, preserving the
// mailbox delivery invariant.
func TestCoordinatorShiftPending(t *testing.T) {
	look := 5 * time.Millisecond
	co := NewCoordinator(1, 2, look)
	d0, d1 := co.Domain(0), co.Domain(1)
	var got []time.Duration
	pool := d0.Sim().PacketPool()
	// A message in flight across the shift: sent in the first window,
	// arriving well after the shift point.
	d0.Sim().At(time.Millisecond, func() {
		p := pool.NewData(1, 0, packet.MSS, packet.NotECT)
		d0.Send(1, 20*time.Millisecond, p, func(p *packet.Packet) {
			got = append(got, d1.Sim().Now())
			d1.Sim().PacketPool().Release(p)
		})
	})
	co.RunUntil(10 * time.Millisecond)
	co.ShiftPending(100 * time.Millisecond)
	if co.Now() != 110*time.Millisecond {
		t.Fatalf("coordinator now = %v", co.Now())
	}
	co.RunUntil(200 * time.Millisecond)
	if len(got) != 1 || got[0] != 121*time.Millisecond {
		t.Fatalf("arrival = %v, want [121ms]", got)
	}
}
