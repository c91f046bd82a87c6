package tcp

import (
	"testing"
	"time"
)

// sackRef is the reference model for the SACK scoreboard: plain bitmaps
// over absolute sequence numbers and full rescans instead of the segment
// ring's bits and sackBoard's incremental counters, loss cursor and
// retransmission cursor. Because sacked bits are sticky, rescanning the
// whole [una, highest-3) range at every inference is equivalent to
// sackBoard's lossScan cursor — which is exactly the equivalence the fuzzer
// checks.
type sackRef struct {
	sacked  []bool
	lost    []bool
	retxed  []bool
	highest int64
}

func newSackRef(n int64) *sackRef {
	return &sackRef{
		sacked: make([]bool, n),
		lost:   make([]bool, n),
		retxed: make([]bool, n),
	}
}

func (r *sackRef) record(start, end, una int64) {
	for seq := start; seq < end; seq++ {
		if seq < una || r.sacked[seq] {
			continue
		}
		r.sacked[seq] = true
		r.lost[seq] = false
		if seq+1 > r.highest {
			r.highest = seq + 1
		}
	}
}

func (r *sackRef) infer(una int64) int {
	found := 0
	for seq := una; seq < r.highest-3; seq++ {
		if !r.sacked[seq] && !r.lost[seq] {
			r.lost[seq] = true
			found++
		}
	}
	return found
}

// reset is the RTO's go-back-N: the whole scoreboard is forgotten.
func (r *sackRef) reset() {
	clear(r.sacked)
	clear(r.lost)
	clear(r.retxed)
	r.highest = 0
}

// nextRetx is the lowest inferred loss at or above una not yet
// retransmitted, or -1.
func (r *sackRef) nextRetx(una, nxt int64) int64 {
	for seq := una; seq < nxt; seq++ {
		if r.lost[seq] && !r.retxed[seq] {
			return seq
		}
	}
	return -1
}

func (r *sackRef) counts(una, nxt int64) (sacked, lostUnretx int) {
	for seq := una; seq < nxt; seq++ {
		if r.sacked[seq] {
			sacked++
		}
		if r.lost[seq] && !r.retxed[seq] {
			lostUnretx++
		}
	}
	return sacked, lostUnretx
}

// FuzzSACKScoreboard feeds random operation sequences — new data, SACK
// blocks in any arrival order, cumulative ACKs, loss inference,
// retransmissions, RTO resets — to the production scoreboard (a segRing
// holding the bits plus a sackBoard) and the bitmap reference in lockstep,
// comparing the full visible state after every step.
func FuzzSACKScoreboard(f *testing.F) {
	// A hole recovered in order; a multi-hole burst with out-of-order
	// blocks; an episode cut short by a cumulative ACK mid-recovery; an
	// episode cut short by an RTO, then a second one on the rewound window.
	f.Add([]byte("\x00\x0f\x00\x01\x04\x03\x03\x00\x00\x04\x00\x00\x02\x02\x00"))
	f.Add([]byte("\x00\x1f\x00\x01\x0a\x02\x01\x04\x01\x01\x10\x03\x03\x00\x00\x04\x00\x00\x04\x00\x00\x01\x02\x00\x03\x00\x00"))
	f.Add([]byte("\x00\x10\x00\x01\x06\x03\x03\x00\x00\x02\x08\x00\x00\x04\x00\x01\x03\x02\x03\x00\x00\x04\x00\x00"))
	f.Add([]byte("\x00\x0f\x00\x01\x04\x03\x03\x00\x00\x04\x00\x00\x05\x00\x00\x01\x02\x07\x03\x00\x00\x04\x00\x00\x02\x05\x00"))

	f.Fuzz(func(t *testing.T, data []byte) {
		const maxSeq = 1 << 12
		var ring segRing
		var sb sackBoard
		ref := newSackRef(maxSeq)
		var una, nxt int64 // nxt: one past the highest sequence ever sent

		for i, ops := 0, 0; i+2 < len(data) && ops < 512; i, ops = i+3, ops+1 {
			op, a, b := data[i]%6, int64(data[i+1]), int64(data[i+2])
			switch op {
			case 0: // sender transmits new data
				for to := min(nxt+1+a%16, maxSeq); nxt < to; nxt++ {
					ring.sent(nxt, 0, false)
				}
			case 1: // a SACK block arrives (any order, any overlap)
				if nxt == una {
					continue
				}
				start := una + a%(nxt-una)
				end := min(start+1+b%8, nxt)
				sb.record(&ring, [][2]int64{{start, end}}, una)
				ref.record(start, end, una)
			case 2: // cumulative ACK advances
				if nxt == una {
					continue
				}
				to := una + 1 + a%(nxt-una)
				sb.advance(&ring, una, to)
				ring.ackTo(to)
				una = to
			case 3: // loss inference pass
				got := sb.inferLosses(&ring, una)
				want := ref.infer(una)
				if got != want {
					t.Fatalf("step %d: inferLosses found %d, reference %d", ops, got, want)
				}
			case 4: // retransmit the lowest inferred loss, sent before marked
				seq, ok := sb.nextRetx(&ring, una)
				if want := ref.nextRetx(una, nxt); !ok && want >= 0 || ok && seq != want {
					t.Fatalf("step %d: nextRetx = %d,%v, reference %d", ops, seq, ok, want)
				}
				if !ok {
					continue
				}
				ring.sent(seq, time.Duration(ops), true)
				sb.markRetx(&ring, seq)
				ref.retxed[seq] = true
			case 5: // RTO: the scoreboard is cleared and the ACK point re-sent
				sb.reset(&ring, una)
				ref.reset()
				if nxt > una {
					ring.sent(una, time.Duration(ops), true)
				}
			}

			for seq := una; seq < nxt; seq++ {
				m, ok := ring.get(seq)
				if !ok {
					t.Fatalf("step %d: seq %d missing from the ring [%d, %d)", ops, seq, ring.lo, ring.hi)
				}
				if m.sacked != ref.sacked[seq] || m.lost != ref.lost[seq] || m.resent != ref.retxed[seq] {
					t.Fatalf("step %d: seq %d sacked/lost/resent = %v/%v/%v, reference %v/%v/%v", ops, seq,
						m.sacked, m.lost, m.resent, ref.sacked[seq], ref.lost[seq], ref.retxed[seq])
				}
			}
			wantSacked, wantLostUnretx := ref.counts(una, nxt)
			if sb.cntSacked != wantSacked {
				t.Fatalf("step %d: cntSacked = %d, reference %d", ops, sb.cntSacked, wantSacked)
			}
			if sb.cntLostUnretx != wantLostUnretx {
				t.Fatalf("step %d: cntLostUnretx = %d, reference %d", ops, sb.cntLostUnretx, wantLostUnretx)
			}
			if sb.highest != ref.highest {
				t.Fatalf("step %d: highest = %d, reference %d", ops, sb.highest, ref.highest)
			}
			if wantPipe := int(nxt-una) - wantSacked - wantLostUnretx; sb.pipe(una, nxt) != wantPipe {
				t.Fatalf("step %d: pipe = %d, reference %d", ops, sb.pipe(una, nxt), wantPipe)
			}
		}
	})
}
