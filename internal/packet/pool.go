package packet

// Pool is a per-simulator free list of Packets.
//
// The packet lifecycle is single-owner (sender → queue → link → receiver),
// so a packet can be recycled the moment its terminal owner is done with it:
// receivers release packets after consuming them, links release packets they
// drop, and NewData/NewAck hand the slot out again. Each simulation owns
// exactly one pool (via sim.Simulator.PacketPool), so pools need no locking
// and parallel campaign runs never share one.
//
// When the free list is empty, Get carves the next packet from a per-pool
// []Packet chunk instead of allocating it alone, so a cell's packets cost a
// handful of heap objects and sit one per cache line. Chunks grow with the
// pool (minChunk to maxChunk packets, about as many as it already holds), so
// the unused tail is at most one chunk per simulation.
//
// The zero value is ready to use. Releasing a packet that was allocated
// outside the pool simply adopts it.
type Pool struct {
	// Poison scrambles every released packet's fields so any component
	// still holding the pointer fails loudly (negative wire lengths break
	// the link auditor's conservation identities; the bogus flow id breaks
	// the dispatcher). Enable it via the pi2bench -tagfree flag or
	// PoisonFreed; it exists to catch use-after-release bugs in tests and
	// is off in normal runs.
	Poison bool

	free  []*Packet
	chunk []Packet // packets not yet handed out

	news     uint64
	reuses   uint64
	releases uint64
}

// PoisonFreed is the default Poison setting adopted by every pool created
// after it is set (sim.New copies it). Set it once at process start (the
// pi2bench -tagfree flag does); it is read concurrently by parallel runs.
var PoisonFreed bool

// PoolStats reports a pool's traffic for diagnostics and tests.
type PoolStats struct {
	// Allocated counts packets that had to come from the heap (carved
	// from a chunk), not the chunks themselves.
	Allocated uint64
	// Reused counts packets served from the free list.
	Reused uint64
	// Released counts packets returned to the pool.
	Released uint64
}

// Stats returns the pool's counters.
func (pl *Pool) Stats() PoolStats {
	return PoolStats{Allocated: pl.news, Reused: pl.reuses, Released: pl.releases}
}

// Get returns a zeroed packet, recycling a released one when possible.
func (pl *Pool) Get() *Packet {
	if n := len(pl.free); n > 0 {
		p := pl.free[n-1]
		pl.free[n-1] = nil
		pl.free = pl.free[:n-1]
		pl.reuses++
		*p = Packet{}
		return p
	}
	if len(pl.chunk) == 0 {
		pl.chunk = make([]Packet, min(maxChunk, max(minChunk, int(pl.news))))
	}
	p := &pl.chunk[0]
	pl.chunk = pl.chunk[1:]
	pl.news++
	return p
}

// Chunk size bounds, in packets: 16 packets are one kilobyte, 256 are 16 KiB.
const (
	minChunk = 16
	maxChunk = 256
)

// Release returns a packet to the pool. Only the packet's terminal owner may
// call it; releasing the same packet twice panics, because a double release
// would let two components share one recycled slot.
func (pl *Pool) Release(p *Packet) {
	if p == nil {
		return
	}
	if p.released {
		panic("packet: double release (packet already returned to the pool)")
	}
	p.released = true
	if pl.Poison {
		p.poisonFields()
	}
	pl.releases++
	pl.free = append(pl.free, p)
}

// NewData is the pool-backed equivalent of NewData.
func (pl *Pool) NewData(flowID int, seq int64, payload int, ecn ECN) *Packet {
	p := pl.Get()
	p.FlowID = flowID
	p.Seq = seq
	p.PayloadLen = int32(payload)
	p.WireLen = int32(payload + HeaderLen)
	p.ECN = ecn
	return p
}

// NewAck is the pool-backed equivalent of NewAck.
func (pl *Pool) NewAck(flowID int, ack int64) *Packet {
	p := pl.Get()
	p.FlowID = flowID
	p.Ack = ack
	p.WireLen = ACKLen
	p.Flags = FlagACK
	return p
}

// Released reports whether the packet is currently sitting in a pool's free
// list. Components on the packet's data path assert it is false.
func (p *Packet) Released() bool { return p.released }

// poisonSeq is a recognizable marker in panic output and traces.
const poisonSeq = -0x7ea9_f4ee

// poisonWireLen is negative and stays negative when multiplied by 8 in
// int32 arithmetic, so a poisoned packet's bit count cannot wrap to zero.
const poisonWireLen = -1 << 27

// poisonFields scrambles a released packet: the negative wire length breaks
// the link auditor's byte conservation and makes any serialization attempt
// panic (negative tx delay), and the flow id has no registered handler.
func (p *Packet) poisonFields() {
	p.FlowID = -1 << 30
	p.Seq = poisonSeq
	p.Ack = poisonSeq
	p.PayloadLen = -1
	p.WireLen = poisonWireLen
	p.ECN = ECN(0xff)
	p.Flags = 0
	p.SACK = nil
}
