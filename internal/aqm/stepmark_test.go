package aqm

import (
	"testing"
	"time"

	"pi2/internal/packet"
)

func TestStepMarkThreshold(t *testing.T) {
	s := NewStepMark(StepMarkConfig{Threshold: 5 * time.Millisecond})
	below := &fakeQueue{sojourn: 4 * time.Millisecond}
	above := &fakeQueue{sojourn: 6 * time.Millisecond}
	if v := s.Enqueue(packet.NewData(1, 0, packet.MSS, packet.ECT1), below, 0); v != Accept {
		t.Errorf("below threshold: %v", v)
	}
	if v := s.Enqueue(packet.NewData(1, 0, packet.MSS, packet.ECT1), above, 0); v != Mark {
		t.Errorf("above threshold: %v", v)
	}
	if v := s.Enqueue(packet.NewData(1, 0, packet.MSS, packet.NotECT), above, 0); v != Accept {
		t.Errorf("Not-ECT must pass: %v", v)
	}
	if s.Marks() != 1 {
		t.Errorf("marks = %d", s.Marks())
	}
}
