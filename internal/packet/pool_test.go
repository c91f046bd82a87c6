package packet

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

func TestPoolRecyclesReleasedPackets(t *testing.T) {
	var pl Pool
	p1 := pl.NewData(1, 0, MSS, ECT0)
	pl.Release(p1)
	p2 := pl.NewAck(2, 7)
	if p1 != p2 {
		t.Error("pool did not recycle the released packet")
	}
	if p2.Released() {
		t.Error("packet handed out by Get still marked released")
	}
	st := pl.Stats()
	if st.Allocated != 1 || st.Reused != 1 || st.Released != 1 {
		t.Errorf("stats = %+v, want {1 1 1}", st)
	}
}

// TestPoolGetReturnsZeroedPacket: recycled slots must not leak the previous
// tenant's fields — a stale SACK block or ECE flag would corrupt a flow.
func TestPoolGetReturnsZeroedPacket(t *testing.T) {
	var pl Pool
	p := pl.NewData(9, 42, MSS, ECT1)
	p.Flags = FlagACK | FlagECE
	p.SACK = &SACKBlocks{N: 1, Blocks: [MaxSACKBlocks][2]int64{{1, 2}}}
	p.AckedCE = true
	p.Retransmit = true
	pl.Release(p)
	q := pl.Get()
	if !reflect.DeepEqual(*q, Packet{}) {
		t.Errorf("recycled packet not zeroed: %+v", q)
	}
}

func TestPoolDoubleReleasePanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("double release did not panic")
		}
		if !strings.Contains(r.(string), "double release") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	var pl Pool
	p := pl.NewAck(1, 1)
	pl.Release(p)
	pl.Release(p)
}

// TestPoolAdoptsForeignPackets: packets built with the plain constructors
// (tests, hand-wired topologies) can be released into any pool.
func TestPoolAdoptsForeignPackets(t *testing.T) {
	var pl Pool
	p := NewData(1, 0, MSS, NotECT)
	pl.Release(p)
	if got := pl.Get(); got != p {
		t.Error("adopted packet was not recycled")
	}
}

// TestPoolConstructorsMatchPlainConstructors: the pooled NewData/NewAck must
// produce field-identical packets, or pooling would change simulations.
func TestPoolConstructorsMatchPlainConstructors(t *testing.T) {
	var pl Pool
	if d1, d2 := NewData(3, 5, MSS, ECT1), pl.NewData(3, 5, MSS, ECT1); !reflect.DeepEqual(*d1, *d2) {
		t.Errorf("NewData mismatch: %+v vs %+v", d1, d2)
	}
	if a1, a2 := NewAck(4, 9), pl.NewAck(4, 9); !reflect.DeepEqual(*a1, *a2) {
		t.Errorf("NewAck mismatch: %+v vs %+v", a1, a2)
	}
}

func TestPoisonScramblesReleasedPacket(t *testing.T) {
	pl := Pool{Poison: true}
	p := pl.NewData(1, 10, MSS, ECT0)
	pl.Release(p)
	if p.WireLen >= 0 {
		t.Error("poisoned packet kept a plausible WireLen")
	}
	if p.Seq != poisonSeq || p.Ack != poisonSeq {
		t.Error("poisoned packet kept plausible seq/ack")
	}
	if p.FlowID >= 0 {
		t.Error("poisoned packet kept a plausible FlowID")
	}
	// A poisoned slot must still be recycled clean.
	if q := pl.Get(); q != p || !reflect.DeepEqual(*q, Packet{}) {
		t.Error("poisoned slot not recycled zeroed")
	}
}

// TestPacketIsOneCacheLine pins the 64-byte layout: a Pool chunk lays
// packets out one per cache line, and a field that grows Packet past 64
// bytes would make every queued packet straddle two.
func TestPacketIsOneCacheLine(t *testing.T) {
	if got := unsafe.Sizeof(Packet{}); got != 64 {
		t.Errorf("unsafe.Sizeof(Packet{}) = %d, want 64", got)
	}
}

// TestPoolChunkPacketsAreZeroed: packets carved from fresh chunks, across
// several chunk boundaries, start as zero values like recycled ones.
func TestPoolChunkPacketsAreZeroed(t *testing.T) {
	var pl Pool
	seen := map[*Packet]bool{}
	for i := 0; i < 3*maxChunk; i++ {
		p := pl.Get()
		if !reflect.DeepEqual(*p, Packet{}) {
			t.Fatalf("packet %d from a chunk not zeroed: %+v", i, p)
		}
		if seen[p] {
			t.Fatalf("packet %d handed out twice", i)
		}
		seen[p] = true
		p.FlowID, p.WireLen, p.Flags = i, FullLen, FlagACK
	}
}

// TestPoolReusesBeforeCarving: a released packet is handed out again (LIFO)
// before any packet is taken from the current chunk.
func TestPoolReusesBeforeCarving(t *testing.T) {
	var pl Pool
	a, b := pl.Get(), pl.Get()
	pl.Release(a)
	pl.Release(b)
	if got := pl.Get(); got != b {
		t.Error("free list not reused LIFO: want the last released packet")
	}
	if got := pl.Get(); got != a {
		t.Error("free list not drained before carving a new packet")
	}
	if c := pl.Get(); c == a || c == b {
		t.Error("carved packet aliases a live one")
	}
	if st := pl.Stats(); st.Allocated != 3 || st.Reused != 2 || st.Released != 2 {
		t.Errorf("stats = %+v, want {3 2 2}", st)
	}
}

// TestPoolAllocatedCountsPackets: Stats().Allocated counts packets carved
// from chunks, not chunks, so pool_news keeps its meaning; and carving them
// costs one heap allocation per chunk, not per packet.
func TestPoolAllocatedCountsPackets(t *testing.T) {
	const n = 1000
	var pl Pool
	for i := 0; i < n; i++ {
		pl.Get()
	}
	if got := pl.Stats().Allocated; got != n {
		t.Errorf("Allocated = %d after %d carved packets", got, n)
	}
	// Chunks of 16, 16, 32, 64, 128, 256, 256, 256 packets hold the first
	// 1024, so 1000 packets take eight allocations.
	held := make([]*Packet, n)
	allocs := testing.AllocsPerRun(10, func() {
		var pl Pool
		for i := range held {
			held[i] = pl.Get()
		}
	})
	if allocs > 8 {
		t.Errorf("%v allocations for %d packets, want at most 8 (one per chunk)", allocs, n)
	}
}
