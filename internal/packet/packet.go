// Package packet defines the packet model shared by the simulator's links,
// AQMs and transport endpoints.
//
// A Packet is a single IP datagram. TCP data segments carry one MSS of
// payload; pure ACKs carry none. The ECN field follows RFC 3168 codepoints,
// with ECT(1) reinterpreted as the identifier for Scalable congestion
// controls, as the paper proposes (and as later standardized for L4S).
package packet

import (
	"fmt"
	"time"
)

// ECN is the two-bit ECN codepoint in the IP header.
type ECN uint8

const (
	// NotECT marks a packet from a transport that does not support ECN.
	// Congestion is signalled to it by dropping.
	NotECT ECN = iota
	// ECT0 marks an ECN-capable packet from a Classic transport
	// (RFC 3168 semantics: a CE mark means the same as a drop).
	ECT0
	// ECT1 marks an ECN-capable packet from a Scalable transport
	// (DCTCP-style semantics; the paper's classifier key).
	ECT1
	// CE is Congestion Experienced: the AQM marked this packet.
	CE
)

// String implements fmt.Stringer.
func (e ECN) String() string {
	switch e {
	case NotECT:
		return "Not-ECT"
	case ECT0:
		return "ECT(0)"
	case ECT1:
		return "ECT(1)"
	case CE:
		return "CE"
	}
	return fmt.Sprintf("ECN(%d)", uint8(e))
}

// ECNCapable reports whether the packet may be CE-marked instead of dropped.
func (e ECN) ECNCapable() bool { return e == ECT0 || e == ECT1 || e == CE }

// Scalable reports whether the codepoint identifies Scalable-CC traffic
// per the paper's classifier (ECT(1) or CE → scalable treatment).
//
// Note CE is grouped with scalable, matching Figure 9: once marked, a packet
// cannot be distinguished, and treating CE as scalable never marks it again.
func (e ECN) Scalable() bool { return e == ECT1 || e == CE }

// Flags are TCP header flags used by the simulator.
type Flags uint8

const (
	// FlagACK marks a segment carrying a cumulative acknowledgment.
	FlagACK Flags = 1 << iota
	// FlagECE is the TCP ECN-Echo flag (receiver → sender).
	FlagECE
	// FlagCWR is the TCP Congestion Window Reduced flag (sender → receiver).
	FlagCWR
)

// Has reports whether all bits in f2 are set in f.
func (f Flags) Has(f2 Flags) bool { return f&f2 == f2 }

// Packet is one simulated IP datagram.
//
// Packets are passed by pointer and owned by exactly one component at a
// time (sender → queue → link → receiver); they are never aliased, so no
// locking is needed (the simulator is single-threaded anyway). The terminal
// owner — the receiver for delivered packets, the link for dropped ones —
// returns the packet to the simulation's Pool for recycling.
//
// A Packet is exactly 64 bytes, so a Pool chunk lays packets out one per
// cache line (TestPacketIsOneCacheLine pins the size). The 8-byte fields
// come first, the two 4-byte lengths next, and the single-byte fields share
// the last word; a new field must fit in its 3 spare bytes or move a cold
// field behind a pointer, as SACK is.
type Packet struct {
	// FlowID identifies the transport connection.
	FlowID int
	// Seq is the sequence number of the first payload byte (data segments)
	// and is unused on pure ACKs.
	Seq int64
	// Ack is the cumulative acknowledgment (next expected byte);
	// meaningful when FlagACK is set.
	Ack int64
	// SentAt is the time the sender transmitted the packet (for RTT
	// sampling); EnqueuedAt is stamped by the queue for sojourn time.
	SentAt     time.Duration
	EnqueuedAt time.Duration
	// SACK carries the selective-acknowledgment ranges of an ACK (nil
	// when the flow does not use SACK or nothing is out of order). Code
	// that copies a packet copies the blocks too, so no two packets share
	// them.
	SACK *SACKBlocks
	// PayloadLen is the TCP payload in bytes (0 for pure ACKs).
	PayloadLen int32
	// WireLen is the size on the wire, headers included. The bottleneck
	// serializes WireLen bytes.
	WireLen int32
	// ECN is the current IP ECN codepoint; the AQM may rewrite it to CE.
	ECN ECN
	// Flags carries TCP flags.
	Flags Flags
	// AckedCE reports, on an ACK, whether the data segment being
	// acknowledged arrived CE-marked. This models DCTCP-style accurate
	// per-packet feedback (the simulator does not use delayed ACKs).
	AckedCE bool
	// Retransmit marks retransmitted data segments (diagnostics only).
	Retransmit bool

	// released is set while the packet sits in a Pool's free list; the
	// data path asserts it is false to catch use-after-release.
	released bool
}

// MaxSACKBlocks is the number of ranges one ACK reports, as TCP option
// space limits it to in practice.
const MaxSACKBlocks = 4

// SACKBlocks is up to MaxSACKBlocks selective-acknowledgment ranges
// [start, end) in segment numbers, in the order the receiver reports them.
type SACKBlocks struct {
	N      int
	Blocks [MaxSACKBlocks][2]int64
}

// Ranges returns the reported ranges; it is nil for a nil receiver.
func (s *SACKBlocks) Ranges() [][2]int64 {
	if s == nil {
		return nil
	}
	return s.Blocks[:s.N:s.N]
}

// Common wire sizes. MSS is the data payload per segment; HeaderLen covers
// IP+TCP headers; ACKLen is the wire size of a pure ACK.
const (
	MSS       = 1448 // bytes of payload per full segment
	HeaderLen = 52   // IPv4 + TCP + timestamps option
	ACKLen    = 52   // pure ACK wire size
	// FullLen is a full-sized data segment on the wire (1500 B total).
	FullLen = MSS + HeaderLen
)

// NewData returns a data segment of payload bytes for the given flow.
func NewData(flowID int, seq int64, payload int, ecn ECN) *Packet {
	return &Packet{
		FlowID:     flowID,
		Seq:        seq,
		PayloadLen: int32(payload),
		WireLen:    int32(payload + HeaderLen),
		ECN:        ecn,
	}
}

// NewAck returns a pure ACK for the given flow.
func NewAck(flowID int, ack int64) *Packet {
	return &Packet{
		FlowID:  flowID,
		Ack:     ack,
		WireLen: ACKLen,
		Flags:   FlagACK,
	}
}

// String implements fmt.Stringer; it is used in test failure messages.
func (p *Packet) String() string {
	if p.Flags.Has(FlagACK) && p.PayloadLen == 0 {
		return fmt.Sprintf("ack{flow=%d ack=%d ece=%v}", p.FlowID, p.Ack, p.Flags.Has(FlagECE))
	}
	return fmt.Sprintf("data{flow=%d seq=%d len=%d %v}", p.FlowID, p.Seq, p.PayloadLen, p.ECN)
}
