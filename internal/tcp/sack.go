package tcp

// SACK-based loss recovery (in the spirit of RFC 6675, with FACK-style
// loss inference): the receiver reports its out-of-order blocks on every
// ACK; the sender keeps a scoreboard, declares a segment lost once three
// segments above it have been selectively acknowledged, and during
// recovery keeps the pipe full with retransmissions first, new data second.
// FACK is exact on an in-order path. When internal/faults reorders packets,
// a segment held back past three later ones is declared lost early and
// retransmitted spuriously, as RFC 6675's DupThresh rule would do too.
//
// SACK is optional (Config.SACK); the default remains NewReno, matching
// the dupack-counting machinery in endpoint.go. The RTO path is the
// backstop for both and clears the scoreboard (go-back-N).

import "pi2/internal/packet"

// sackBoard is the sender-side scoreboard. Its per-segment bits live in the
// segment ring (segMeta.sacked, lost and resent); the board keeps the
// cursors and counters that keep each ACK's work incremental.
type sackBoard struct {
	highest       int64 // highest sacked seq + 1 (exclusive)
	lossScan      int64 // loss inference has run below this seq
	retxScan      int64 // no loss awaiting retransmission lies below this seq
	cntSacked     int   // sacked segments
	cntLostUnretx int   // lost and not yet retransmitted
}

// reset clears the scoreboard (used by the RTO go-back-N path).
func (b *sackBoard) reset(r *segRing, sndUna int64) {
	for seq := r.lo; seq < r.hi; seq++ {
		m := r.at(seq)
		m.sacked, m.lost, m.resent = false, false, false
	}
	*b = sackBoard{lossScan: sndUna, retxScan: sndUna}
}

// advance uncounts the segments [from, to) that the cumulative ACK is about
// to take out of the ring.
func (b *sackBoard) advance(r *segRing, from, to int64) {
	for seq := from; seq < min(to, r.hi); seq++ {
		m := r.at(seq)
		if m.sacked {
			b.cntSacked--
		}
		if m.lost && !m.resent {
			b.cntLostUnretx--
		}
	}
	b.lossScan = max(b.lossScan, to)
}

// record marks the receiver-reported blocks. Blocks only ever cover sent
// data, so they are clipped to the ring.
func (b *sackBoard) record(r *segRing, blocks [][2]int64, sndUna int64) {
	for _, blk := range blocks {
		for seq := max(blk[0], sndUna); seq < min(blk[1], r.hi); seq++ {
			m := r.at(seq)
			if m.sacked {
				continue
			}
			m.sacked = true
			b.cntSacked++
			if m.lost {
				// A presumed-lost segment arrived after all
				// (its retransmission, normally).
				m.lost = false
				if !m.resent {
					b.cntLostUnretx--
				}
			}
			b.highest = max(b.highest, seq+1)
		}
	}
}

// inferLosses applies the FACK rule: any unsacked segment with three or
// more sacked segments above it is lost. On an in-order path this is
// equivalent to (and as safe as) the RFC 6675 DupThresh rule. Returns the
// number of newly detected losses.
func (b *sackBoard) inferLosses(r *segRing, sndUna int64) int {
	const dupThresh = 3
	limit := b.highest - dupThresh
	found := 0
	for seq := max(b.lossScan, sndUna); seq < limit; seq++ {
		if m := r.at(seq); !m.sacked && !m.lost {
			m.lost = true
			b.cntLostUnretx++
			found++
		}
	}
	b.lossScan = max(b.lossScan, limit)
	return found
}

// pipe estimates the number of segments still in flight.
func (b *sackBoard) pipe(sndUna, sndNxt int64) int {
	return int(sndNxt-sndUna) - b.cntSacked - b.cntLostUnretx
}

// nextRetx returns the lowest inferred loss not yet retransmitted. Losses
// are only inferred at or above lossScan, so a segment below it that is not
// such a loss never becomes one before the next reset, and a miss moves the
// cursor up to lossScan.
func (b *sackBoard) nextRetx(r *segRing, sndUna int64) (int64, bool) {
	for seq := max(b.retxScan, sndUna); seq < b.lossScan; seq++ {
		if m := r.at(seq); m.lost && !m.resent {
			b.retxScan = seq
			return seq, true
		}
	}
	b.retxScan = b.lossScan
	return 0, false
}

// markRetx records that a lost segment was retransmitted.
func (b *sackBoard) markRetx(r *segRing, seq int64) {
	m := r.at(seq)
	if m.lost && !m.resent {
		b.cntLostUnretx--
	}
	m.resent = true
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

// processSACK ingests the blocks on an arriving ACK and enters recovery once
// the scoreboard holds a loss not yet retransmitted.
func (e *sender) processSACK(p *packet.Packet) {
	e.sack.record(&e.meta, p.SACK.Ranges(), e.sndUna)
	e.sack.inferLosses(&e.meta, e.sndUna)
	if !e.state.InRecovery && e.sack.cntLostUnretx > 0 && e.sndUna >= e.rtoGuard {
		e.enterRecovery(e.grp.sim.Now())
	}
}

// sackSend keeps the pipe full during SACK operation: retransmissions of
// inferred losses take priority over new data.
func (e *sender) sackSend() {
	for e.sack.pipe(e.sndUna, e.sndNxt) < int(e.state.Cwnd) {
		if seq, ok := e.sack.nextRetx(&e.meta, e.sndUna); ok {
			e.sendSeg(seq, true)
			e.sack.markRetx(&e.meta, seq)
			continue
		}
		if !e.hasData(e.sndNxt) {
			return
		}
		e.sendSeg(e.sndNxt, false)
		e.sndNxt++
	}
}
