package tcp

// SACK-based loss recovery (in the spirit of RFC 6675, with FACK-style
// loss inference, which is exact here because the simulated bottleneck
// never reorders): the receiver reports its out-of-order blocks on every
// ACK; the sender keeps a scoreboard, declares a segment lost once three
// segments above it have been selectively acknowledged, and during
// recovery keeps the pipe full with retransmissions first, new data second.
//
// SACK is optional (Config.SACK); the default remains NewReno, matching
// the dupack-counting machinery in endpoint.go. The RTO path is the
// backstop for both and clears the scoreboard (go-back-N).

import "pi2/internal/packet"

// sackState is the sender-side scoreboard.
type sackState struct {
	sacked  map[int64]bool // selectively acked, above sndUna
	lost    map[int64]bool // inferred lost (FACK rule)
	retxed  map[int64]bool // lost segments already retransmitted
	highest int64          // highest sacked seq + 1 (exclusive)

	cntSacked     int     // |sacked|
	cntLostUnretx int     // lost and not yet retransmitted
	lossScan      int64   // cursor up to which loss inference has run
	retxQueue     []int64 // newly inferred losses, FIFO (ascending)
}

func newSackState() *sackState {
	return &sackState{
		sacked: make(map[int64]bool),
		lost:   make(map[int64]bool),
		retxed: make(map[int64]bool),
	}
}

// reset clears the scoreboard (used by the RTO go-back-N path).
func (ss *sackState) reset(sndUna int64) {
	ss.sacked = make(map[int64]bool)
	ss.lost = make(map[int64]bool)
	ss.retxed = make(map[int64]bool)
	ss.highest = 0
	ss.cntSacked = 0
	ss.cntLostUnretx = 0
	ss.lossScan = sndUna
	ss.retxQueue = ss.retxQueue[:0]
}

// advance drops scoreboard entries below the new cumulative ACK.
func (ss *sackState) advance(from, to int64) {
	for seq := from; seq < to; seq++ {
		if ss.sacked[seq] {
			ss.cntSacked--
			delete(ss.sacked, seq)
		}
		if ss.lost[seq] {
			if !ss.retxed[seq] {
				ss.cntLostUnretx--
			}
			delete(ss.lost, seq)
		}
		delete(ss.retxed, seq)
	}
	if ss.lossScan < to {
		ss.lossScan = to
	}
}

// record marks the receiver-reported blocks and returns whether anything
// new was learned.
func (ss *sackState) record(blocks [][2]int64, sndUna int64) bool {
	news := false
	for _, b := range blocks {
		for seq := b[0]; seq < b[1]; seq++ {
			if seq < sndUna || ss.sacked[seq] {
				continue
			}
			ss.sacked[seq] = true
			ss.cntSacked++
			news = true
			if ss.lost[seq] {
				// A presumed-lost segment arrived after all
				// (its retransmission, normally).
				if !ss.retxed[seq] {
					ss.cntLostUnretx--
				}
				delete(ss.lost, seq)
			}
			if seq+1 > ss.highest {
				ss.highest = seq + 1
			}
		}
	}
	return news
}

// inferLosses applies the FACK rule: any unsacked segment with three or
// more sacked segments above it is lost. On an in-order path this is
// equivalent to (and as safe as) the RFC 6675 DupThresh rule. Returns the
// number of newly detected losses.
func (ss *sackState) inferLosses(sndUna int64) int {
	const dupThresh = 3
	limit := ss.highest - dupThresh
	found := 0
	for seq := max64(ss.lossScan, sndUna); seq < limit; seq++ {
		if !ss.sacked[seq] && !ss.lost[seq] {
			ss.lost[seq] = true
			ss.cntLostUnretx++
			ss.retxQueue = append(ss.retxQueue, seq)
			found++
		}
	}
	if limit > ss.lossScan {
		ss.lossScan = limit
	}
	return found
}

// pipe estimates the number of segments still in flight.
func (ss *sackState) pipe(sndUna, sndNxt int64) int {
	return int(sndNxt-sndUna) - ss.cntSacked - ss.cntLostUnretx
}

// nextRetx pops the oldest still-relevant inferred loss, skipping entries
// that were cumulatively acked, selectively acked or already retransmitted
// in the meantime.
func (ss *sackState) nextRetx(sndUna int64) (int64, bool) {
	for len(ss.retxQueue) > 0 {
		seq := ss.retxQueue[0]
		if seq < sndUna || !ss.lost[seq] || ss.retxed[seq] {
			ss.retxQueue = ss.retxQueue[1:]
			continue
		}
		return seq, true
	}
	return 0, false
}

// markRetx records that a lost segment was retransmitted.
func (ss *sackState) markRetx(seq int64) {
	if ss.lost[seq] && !ss.retxed[seq] {
		ss.cntLostUnretx--
	}
	ss.retxed[seq] = true
	if len(ss.retxQueue) > 0 && ss.retxQueue[0] == seq {
		ss.retxQueue = ss.retxQueue[1:]
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// --- receiver side: building SACK blocks ---

// sackBlocks builds up to four SACK ranges [start, end) from the sorted
// out-of-order sequence list. As in real TCP (where option space limits
// the count), the block containing recentSeq — the segment whose arrival
// triggered this ACK — is reported first; without that rule a receiver
// with more than four holes would only ever report its lowest blocks and
// the sender's scoreboard could never complete (recovery would deadlock
// until the RTO). Pass recentSeq < 0 for timer-triggered ACKs.
func sackBlocks(sorted []int64, recentSeq int64) *packet.SACKBlocks {
	if len(sorted) == 0 {
		return nil
	}
	// Collect all runs.
	var runs [][2]int64
	start, prev := sorted[0], sorted[0]
	for _, s := range sorted[1:] {
		if s == prev+1 {
			prev = s
			continue
		}
		runs = append(runs, [2]int64{start, prev + 1})
		start, prev = s, s
	}
	runs = append(runs, [2]int64{start, prev + 1})

	// Rotate the run containing recentSeq to the front.
	first := 0
	if recentSeq >= 0 {
		for i, r := range runs {
			if recentSeq >= r[0] && recentSeq < r[1] {
				first = i
				break
			}
		}
	}
	sb := &packet.SACKBlocks{N: min(len(runs), packet.MaxSACKBlocks)}
	for i := range sb.N {
		sb.Blocks[i] = runs[(first+i)%len(runs)]
	}
	return sb
}

// --- endpoint integration ---

// processSACK ingests the blocks on an arriving ACK. It returns true if
// recovery should be (or remain) active, i.e. there are inferred losses.
func (e *Endpoint) processSACK(p *packet.Packet) {
	ss := e.sack
	ss.record(p.SACK.Ranges(), e.sndUna)
	ss.inferLosses(e.sndUna)
	if !e.state.InRecovery && ss.cntLostUnretx > 0 && e.sndUna >= e.rtoGuard {
		now := e.sim.Now()
		e.state.InRecovery = true
		e.recover = e.sndNxt
		e.cc.OnCongestionEvent(&e.state, now)
		e.congestionEvents++
	}
}

// sackSend keeps the pipe full during SACK operation: retransmissions of
// inferred losses take priority over new data.
func (e *Endpoint) sackSend() {
	ss := e.sack
	for ss.pipe(e.sndUna, e.sndNxt) < int(e.state.Cwnd) {
		if seq, ok := ss.nextRetx(e.sndUna); ok {
			e.sendSeg(seq, true)
			ss.markRetx(seq)
			continue
		}
		if !e.hasData(e.sndNxt) {
			return
		}
		if !e.paceGate() {
			return
		}
		e.sendSeg(e.sndNxt, false)
		e.sndNxt++
	}
}
