package link

import (
	"fmt"

	"pi2/internal/packet"
)

// Dispatcher routes packets leaving the bottleneck to per-flow handlers.
// It is the delivery callback experiments hand to New. Flow ids are small
// dense integers, so the table is a slice indexed by id, not a map.
type Dispatcher struct {
	handlers []func(*packet.Packet)
}

// NewDispatcher returns an empty dispatcher.
func NewDispatcher() *Dispatcher {
	return &Dispatcher{}
}

// Reserve sizes the table for flow ids below n in one allocation, so
// registering them does not grow it id by id.
func (d *Dispatcher) Reserve(n int) {
	if n > cap(d.handlers) {
		h := make([]func(*packet.Packet), len(d.handlers), n)
		copy(h, d.handlers)
		d.handlers = h
	}
}

// Register installs the handler for a flow id, replacing any previous one.
func (d *Dispatcher) Register(flowID int, h func(*packet.Packet)) {
	if flowID < 0 {
		panic(fmt.Sprintf("link: negative flow id %d", flowID))
	}
	for flowID >= len(d.handlers) {
		d.handlers = append(d.handlers, nil)
	}
	d.handlers[flowID] = h
}

// Unregister retires a flow: packets still in flight for it are silently
// discarded rather than treated as a wiring bug.
func (d *Dispatcher) Unregister(flowID int) {
	d.Register(flowID, discard)
}

func discard(*packet.Packet) {}

// Deliver routes one packet. Packets for unknown flows panic: in this
// simulator that is always a wiring bug, never a runtime condition.
func (d *Dispatcher) Deliver(p *packet.Packet) {
	var h func(*packet.Packet)
	if uint(p.FlowID) < uint(len(d.handlers)) {
		h = d.handlers[p.FlowID]
	}
	if h == nil {
		panic(fmt.Sprintf("link: no handler for flow %d", p.FlowID))
	}
	h(p)
}
