package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"pi2/internal/packet"
)

// The differential oracle (oracle_test.go) holds lanes to the reference
// order over random scripts; the tests here pin the individual contracts by
// hand.

// TestLaneFiresInSchedulingOrder: among equal timestamps, heap events and
// events on two lanes fire in the order they were scheduled, whichever queue
// they wait in — including an out-of-order lane push that fell back to the
// heap.
func TestLaneFiresInSchedulingOrder(t *testing.T) {
	s := New(1)
	a, b := s.NewLane(), s.NewLane()
	var got []string
	ev := func(name string) Event { return func() { got = append(got, name) } }
	ms := time.Millisecond
	a.At(5*ms, ev("a5"))
	s.At(5*ms, ev("h5"))
	b.At(5*ms, ev("b5"))
	a.At(5*ms, ev("a5'"))
	a.At(9*ms, ev("a9"))
	a.At(7*ms, ev("a7-fallback")) // below the tail: scheduled on the heap
	b.At(7*ms, ev("b7"))
	if s.Pending() != 7 || len(s.heap) != 2 || len(s.heads) != 2 {
		t.Fatalf("Pending() = %d (want 7), event heap holds %d (want h5 and the fallback), lane-head heap %d (want 2)",
			s.Pending(), len(s.heap), len(s.heads))
	}
	s.Run()
	if want := "a5 h5 b5 a5' a7-fallback b7 a9"; strings.Join(got, " ") != want {
		t.Errorf("fired %q, want %q", strings.Join(got, " "), want)
	}
	if s.Pending() != 0 || a.Len() != 0 || b.Len() != 0 {
		t.Errorf("left %d pending, lanes hold %d and %d", s.Pending(), a.Len(), b.Len())
	}
}

// TestLaneEventsObeyTheSchedulerChecks: the not-in-the-past, MaxEvents and
// Cancel checks apply to lane events exactly as to heap events.
func TestLaneEventsObeyTheSchedulerChecks(t *testing.T) {
	panics := func(f func()) (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		f()
		return
	}
	s := New(1)
	ln := s.NewLane()
	s.RunUntil(10 * time.Millisecond)
	if msg := panics(func() { ln.At(9*time.Millisecond, nop) }); !strings.Contains(msg, "before now") {
		t.Errorf("lane event in the past: %q", msg)
	}
	if msg := panics(func() { ln.After(-time.Nanosecond, nop) }); !strings.Contains(msg, "before now") {
		t.Errorf("negative lane delay: %q", msg)
	}

	s.MaxEvents = 3
	for i := 0; i < 5; i++ {
		ln.After(time.Duration(i)*time.Millisecond, nop)
	}
	if msg := panics(s.Run); !strings.Contains(msg, "MaxEvents") || s.Processed() != 4 {
		t.Errorf("MaxEvents over lane events: %q after %d events", msg, s.Processed())
	}

	s = New(1)
	ln = s.NewLane()
	fired := 0
	ln.After(time.Millisecond, func() { fired++; s.Cancel("enough") })
	ln.After(2*time.Millisecond, func() { fired++ })
	if msg := panics(s.Run); !strings.Contains(msg, "enough") || fired != 1 {
		t.Errorf("Cancel from a lane event: %q, %d events fired", msg, fired)
	}
}

// TestStepFromCallbackPanics: an event's entry stays at the root while its
// callback runs, so a nested Step would run it again; it is refused instead.
func TestStepFromCallbackPanics(t *testing.T) {
	s := New(1)
	s.After(time.Millisecond, func() { s.Step() })
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "inside an event callback") {
			t.Errorf("nested Step: %q", msg)
		}
	}()
	s.Run()
}

// TestLaneSteadyStateDoesNotAllocate: once the ring has grown to the working
// set, pushing and firing lane events allocates nothing — whether the lane
// drains completely each cycle (a serializer) or keeps a standing backlog (a
// delay pipe).
func TestLaneSteadyStateDoesNotAllocate(t *testing.T) {
	s := New(1)
	tx, pipe := s.NewLane(), s.Lane(10*time.Millisecond)
	var serve Event
	left := 0
	serve = func() {
		pipe.After(10*time.Millisecond, nop)
		if left--; left > 0 {
			tx.After(time.Microsecond, serve)
		}
	}
	cycle := func() {
		left = 256
		tx.After(time.Microsecond, serve)
		s.RunUntil(s.Now() + time.Millisecond) // 256 events queue up on pipe
		s.Run()
	}
	cycle()
	if avg := testing.AllocsPerRun(50, cycle); avg != 0 {
		t.Errorf("steady-state lane cycle allocates %.1f times, want 0", avg)
	}
	if len(s.heap) != 0 || len(s.heads) != 0 || len(s.slab) != 0 {
		t.Errorf("%d heap entries and %d lane heads left, slab grew to %d slots for two lanes",
			len(s.heap), len(s.heads), len(s.slab))
	}
}

// TestLanePacketContracts: a lane event's packet is readable from its own
// callback only, a packet-carrying push below the lane's tail is refused
// without scheduling anything, and a lane event scheduled without a packet
// reads nil.
func TestLanePacketContracts(t *testing.T) {
	panics := func(f func()) (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		f()
		return
	}
	s := New(1)
	pipe, other := s.Lane(10*time.Millisecond), s.NewLane()
	var got []int64
	read := func() { got = append(got, pipe.Packet().Seq) }
	for i := int64(1); i <= 3; i++ {
		pipe.AfterPacket(10*time.Millisecond, &packet.Packet{Seq: i}, read)
	}
	pipe.After(10*time.Millisecond, func() {
		if p := pipe.Packet(); p != nil {
			t.Errorf("event without a packet read %v", p)
		}
	})
	outside := "outside the lane's running event"
	other.After(time.Millisecond, func() {
		if msg := panics(func() { pipe.Packet() }); !strings.Contains(msg, outside) {
			t.Errorf("read from another lane's event: %q", msg)
		}
	})
	s.After(time.Millisecond, func() {
		if msg := panics(func() { pipe.Packet() }); !strings.Contains(msg, outside) {
			t.Errorf("read from a timer: %q", msg)
		}
	})
	if msg := panics(func() { pipe.Packet() }); !strings.Contains(msg, outside) {
		t.Errorf("read between events: %q", msg)
	}
	if msg := panics(func() { pipe.AfterPacket(5*time.Millisecond, &packet.Packet{}, read) }); !strings.Contains(msg, "below the lane's tail") {
		t.Errorf("packet push below the tail: %q", msg)
	}
	if s.Pending() != 6 || pipe.Len() != 4 {
		t.Fatalf("after the refused push: %d pending, %d on the pipe; want 6 and 4", s.Pending(), pipe.Len())
	}
	s.Run()
	if fmt.Sprint(got) != "[1 2 3]" {
		t.Errorf("packets read back %v, want [1 2 3]", got)
	}
}

func ExampleLane() {
	s := New(1)
	// A constant-delay pipe: whoever sends, arrivals are in sending order,
	// so the pipe's events share a lane and cost the event heap nothing.
	pipe := s.Lane(10 * time.Millisecond)
	for i := 1; i <= 3; i++ {
		i := i
		s.At(time.Duration(i)*time.Millisecond, func() {
			pipe.After(10*time.Millisecond, func() { fmt.Println("arrival", i, "at", s.Now()) })
		})
	}
	s.RunUntil(5 * time.Millisecond)
	fmt.Println(s.Pending(), "pending")
	s.Run()
	// Output:
	// 3 pending
	// arrival 1 at 11ms
	// arrival 2 at 12ms
	// arrival 3 at 13ms
}
