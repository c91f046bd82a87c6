package tcp

import (
	"math/rand"
	"testing"
	"time"
)

// metaMap is the reference model for segRing: the map keyed by sequence
// number the endpoint used to carry, with exactly the operations the sender
// performed on it.
type metaMap map[int64]segMeta

func (m metaMap) sent(seq int64, now time.Duration, retx bool) {
	m[seq] = segMeta{sentAt: now, retx: retx || m[seq].retx}
}

func (m metaMap) ackTo(una, ack int64) {
	for s := una; s < ack; s++ {
		delete(m, s)
	}
}

func (m metaMap) shift(delta time.Duration) {
	for seq, v := range m {
		v.sentAt += delta
		m[seq] = v
	}
}

// TestSegRingMatchesMap drives the ring and the map with the sender's own
// moves — new data, fast retransmits, cumulative ACKs (including ones that
// land past a rewound sndNxt, or past anything ever sent), RTO go-back-N
// rewinds, fast-forward shifts — and requires that sampleRTT's lookup sees
// the same (sentAt, retx, present) on every ACK, and that the two agree on
// every sequence number around the window after every move.
func TestSegRingMatchesMap(t *testing.T) {
	grewTo := 0
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var ring segRing
		ref := metaMap{}
		var una, nxt, top int64 // top: one past the highest sequence ever sent
		now := time.Duration(0)
		// Each run leans toward sending or toward ACKing, so windows both
		// hover near empty and grow through several ring doublings.
		sendBias := 20 + rng.Intn(60)

		send := func(seq int64, retx bool) {
			ring.sent(seq, now, retx)
			ref.sent(seq, now, retx)
			if seq >= top {
				top = seq + 1
			}
		}
		for step := 0; step < 2000; step++ {
			now += time.Duration(rng.Intn(5)) * time.Millisecond
			switch r := rng.Intn(100); {
			case r < sendBias:
				send(nxt, false) // after a rewind this re-sends old data as new
				nxt++
			case r < sendBias+8:
				if nxt > una {
					send(una+rng.Int63n(nxt-una), true)
				}
			case r < sendBias+10:
				if nxt > una { // RTO: go back N and retransmit the ACK point
					nxt = una
					send(nxt, true)
					nxt++
				}
			case r < sendBias+12:
				delta := time.Duration(1+rng.Intn(3)) * time.Second
				now += delta
				ring.shift(delta)
				ref.shift(delta)
			default:
				if top == una && r%8 != 0 {
					continue
				}
				ack := una + 1 + rng.Int63n(top-una+1) // up to one past top
				if r%3 != 0 && nxt > una {
					ack = una + 1 + rng.Int63n(min(nxt-una, 3)) // the common case
				}
				got, gotOK := ring.get(ack - 1)
				want, wantOK := ref[ack-1]
				if got != want || gotOK != wantOK {
					t.Fatalf("seed %d step %d: ACK %d samples %+v/%v, map has %+v/%v",
						seed, step, ack, got, gotOK, want, wantOK)
				}
				ring.ackTo(ack)
				ref.ackTo(una, ack)
				una = ack
				if nxt < una {
					nxt = una
				}
				if top < una {
					top = una
				}
			}
			for s := una - 2; s < top+2; s++ {
				got, gotOK := ring.get(s)
				want, wantOK := ref[s]
				if got != want || gotOK != wantOK {
					t.Fatalf("seed %d step %d: seq %d: ring %+v/%v, map %+v/%v (una %d nxt %d top %d)",
						seed, step, s, got, gotOK, want, wantOK, una, nxt, top)
				}
			}
			if int(ring.hi-ring.lo) != len(ref) {
				t.Fatalf("seed %d step %d: ring spans %d segments, map holds %d", seed, step, ring.hi-ring.lo, len(ref))
			}
		}
		grewTo = max(grewTo, len(ring.buf))
	}
	if grewTo < 128 { // 16 → 32 → 64 → 128
		t.Fatalf("largest ring was %d slots: growth across power-of-two boundaries not exercised", grewTo)
	}
}

// TestSegRingRejectsGaps: segments are numbered densely, so a send that
// would skip sequence numbers (and alias a live slot) is a sender bug.
func TestSegRingRejectsGaps(t *testing.T) {
	var r segRing
	r.sent(0, 0, false)
	defer func() {
		if recover() == nil {
			t.Fatal("send past the window's end did not panic")
		}
	}()
	r.sent(2, 0, false)
}
