package stats

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"math"
	"testing"
)

func gobRoundTrip(t *testing.T, in, out any) {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(in); err != nil {
		t.Fatalf("encode: %v", err)
	}
	if err := gob.NewDecoder(&buf).Decode(out); err != nil {
		t.Fatalf("decode: %v", err)
	}
}

func TestWelfordGobRoundTrip(t *testing.T) {
	var w Welford
	for i := 0; i < 1000; i++ {
		w.Add(math.Sin(float64(i)) * 1e3)
	}
	var got Welford
	gobRoundTrip(t, &w, &got)
	if got != w {
		t.Fatalf("round trip changed state: got %+v want %+v", got, w)
	}
}

func TestSampleGobRoundTrip(t *testing.T) {
	var s Sample
	for i := 0; i < 500; i++ {
		s.Add(math.Cos(float64(i)) * 10)
	}
	s.Percentile(99) // sort in place: order must survive the trip
	var got Sample
	gobRoundTrip(t, &s, &got)
	if got.N() != s.N() || got.Mean() != s.Mean() || got.Stddev() != s.Stddev() {
		t.Fatalf("moments changed: got (%d %v %v) want (%d %v %v)",
			got.N(), got.Mean(), got.Stddev(), s.N(), s.Mean(), s.Stddev())
	}
	gx, sx := got.Values(), s.Values()
	for i := range sx {
		if gx[i] != sx[i] {
			t.Fatalf("observation %d changed: %v != %v", i, gx[i], sx[i])
		}
	}
	// Merging the decoded sample must accumulate bit-identically to
	// merging the original — the fleet aggregation contract.
	var a, b Sample
	a.Merge(&s)
	b.Merge(&got)
	if a.Mean() != b.Mean() || a.Stddev() != b.Stddev() {
		t.Fatalf("merge diverged: %v/%v vs %v/%v", a.Mean(), a.Stddev(), b.Mean(), b.Stddev())
	}
}

func TestLogHistogramGobRoundTrip(t *testing.T) {
	h := NewDelayHistogram()
	for i := 0; i < 2000; i++ {
		h.Add(math.Abs(math.Sin(float64(i))) * 0.2)
	}
	var got LogHistogram
	gobRoundTrip(t, h, &got)
	if got.tab != h.tab {
		t.Fatalf("decoded histogram did not pick up its geometry's shared edge table")
	}
	if got.N() != h.N() || got.Mean() != h.Mean() || got.Min() != h.Min() || got.Max() != h.Max() {
		t.Fatalf("summary changed after round trip")
	}
	hp := h.Percentiles(1, 25, 50, 99)
	gp := got.Percentiles(1, 25, 50, 99)
	for i := range hp {
		if hp[i] != gp[i] {
			t.Fatalf("percentile %d changed: %v != %v", i, hp[i], gp[i])
		}
	}
	// Geometry must survive so Merge with a sibling histogram still works.
	sib := NewDelayHistogram()
	sib.Add(0.01)
	sib.Merge(&got)
	if sib.N() != h.N()+1 {
		t.Fatalf("merge after decode: n=%d want %d", sib.N(), h.N()+1)
	}
}

// oddFloats are the values a lossy float codec would disturb.
var oddFloats = []float64{
	0, math.Copysign(0, -1),
	math.Float64frombits(0x7ff8000000000001), // quiet NaN, payload 1
	math.Float64frombits(0xfff4000000000abc), // signalling NaN, sign set
	math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.Float64frombits(0x000fffffffffffff), // subnormals
	math.MaxFloat64, 1e-300, 0.1, -7,
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestSampleCodecBitExact round-trips samples holding every odd float,
// empty, sorted, unsorted and with observations still in chunks, and
// requires every bit, the sorted flag and later merges to survive.
func TestSampleCodecBitExact(t *testing.T) {
	chunked := func() *Sample {
		var s Sample
		for i := 0; i < 3*firstChunk+5; i++ {
			s.Add(oddFloats[i%len(oddFloats)] * float64(i+1))
		}
		return &s
	}
	mixed := func() *Sample { // flattened prefix plus pending chunks
		s := chunked()
		s.Values()
		for _, x := range oddFloats {
			s.Add(x)
		}
		return s
	}
	sorted := func() *Sample {
		var s Sample
		for i := 200; i > 0; i-- {
			s.Add(float64(i%17) - 8)
		}
		s.Percentile(50)
		return &s
	}
	odd := func() *Sample {
		var s Sample
		for _, x := range oddFloats {
			s.Add(x)
		}
		return &s
	}
	cases := map[string]func() *Sample{
		"empty": func() *Sample { return &Sample{} }, "odd": odd,
		"chunked": chunked, "mixed": mixed, "sorted": sorted,
	}
	for name, mk := range cases {
		s := mk()
		enc := wireOf(s)
		var got Sample
		gobRoundTrip(t, s, &got)
		if got.sorted != s.sorted || got.w.n != s.w.n || !sameBits([]float64{got.w.mean, got.w.m2}, []float64{s.w.mean, s.w.m2}) {
			t.Fatalf("%s: sorted/Welford %v/%+v, want %v/%+v", name, got.sorted, got.w, s.sorted, s.w)
		}
		if !bytes.Equal(wireOf(got), enc) {
			t.Fatalf("%s: re-encoding the decoded sample changed its bytes", name)
		}
		if want := mk().Values(); !sameBits(got.Values(), want) {
			t.Fatalf("%s: observations changed bits", name)
		}
		var a, b Sample
		a.Add(1)
		b.Add(1)
		a.Merge(mk())
		b.Merge(&got)
		if !bytes.Equal(wireOf(a), wireOf(b)) {
			t.Fatalf("%s: merge after decode diverged from merge before", name)
		}
	}
}

func TestWelfordCodecBitExact(t *testing.T) {
	for _, x := range oddFloats {
		var w Welford
		w.Add(x)
		w.Add(1)
		var got Welford
		gobRoundTrip(t, w, &got)
		if got.n != w.n || math.Float64bits(got.mean) != math.Float64bits(w.mean) ||
			math.Float64bits(got.m2) != math.Float64bits(w.m2) {
			t.Fatalf("Welford after %v: got %+v want %+v", x, got, w)
		}
	}
}

func TestLogHistogramCodecBitExact(t *testing.T) {
	h := NewDelayHistogram()
	for i, x := range oddFloats {
		h.Add(math.Abs(x) * float64(i))
	}
	for i := 0; i < 5000; i++ {
		h.Add(float64(i) * 1e-3) // counts past one uvarint byte
	}
	enc := wireOf(h)
	var got LogHistogram
	gobRoundTrip(t, h, &got)
	if !bytes.Equal(wireOf(got), enc) {
		t.Fatalf("re-encoding the decoded histogram changed its bytes")
	}
	if len(enc) > histHead+2*h.nbins {
		t.Fatalf("%d-bin histogram encodes to %d bytes: empty bins must cost one byte", h.nbins, len(enc))
	}
	a, b := NewDelayHistogram(), NewDelayHistogram()
	a.Merge(h)
	b.Merge(&got)
	if !bytes.Equal(wireOf(a), wireOf(b)) {
		t.Fatalf("merge after decode diverged from merge before")
	}
}

// wireOf returns v's encoding; the collectors' encoders cannot fail.
func wireOf(v gob.GobEncoder) []byte {
	b, err := v.GobEncode()
	if err != nil {
		panic(err)
	}
	return b
}

// TestCollectorWirePinned pins one small encoding of each collector, so
// the format cannot drift without this test (and ProtoVersion) changing.
func TestCollectorWirePinned(t *testing.T) {
	var w Welford
	w.Add(1)
	w.Add(3)
	var s Sample
	s.Add(1)
	s.Add(-2)
	h := NewLogHistogram(1, 4, 1) // ln 1 = 0, bins: underflow, [1,2), [2,4), [4,∞)
	h.Add(0.5)
	h.Add(3)
	for _, c := range []struct {
		name string
		v    gob.GobEncoder
		hex  string
	}{
		{"Welford", w, "70325701" +
			"0200000000000000" + "0000000000000040" + "0000000000000040"},
		{"Sample", s, "7032530100" +
			"0200000000000000" + "000000000000e0bf" + "0000000000001240" +
			"000000000000f03f" + "00000000000000c0"},
		{"LogHistogram", *h, "70324801" +
			"000000000000f03f" + "0000000000000000" + "ef39fafe422ee63f" + "fe822b654715f73f" +
			"0200000000000000" + "000000000000e03f" + "0000000000000840" +
			"0200000000000000" + "000000000000fc3f" + "0000000000000940" +
			"01000100"},
	} {
		if got := hex.EncodeToString(wireOf(c.v)); got != c.hex {
			t.Errorf("%s encodes to\n%s\nwant\n%s", c.name, got, c.hex)
		}
	}
}

// TestCollectorDecodeRejects feeds each decoder the damaged states it
// used to accept: every one must fail, not decode into a collector that
// panics or answers wrongly later.
func TestCollectorDecodeRejects(t *testing.T) {
	var s Sample
	for _, x := range []float64{3, 1, 2} {
		s.Add(x)
	}
	sample := wireOf(s)
	h := NewLogHistogram(1, 4, 1)
	h.Add(3)
	hist := wireOf(*h)
	var w Welford
	w.Add(1)
	welford := wireOf(w)

	edit := func(b []byte, f func([]byte) []byte) []byte { return f(append([]byte(nil), b...)) }
	putU := func(off int, v uint64) func([]byte) []byte {
		return func(b []byte) []byte { binary.LittleEndian.PutUint64(b[off:], v); return b }
	}
	putF := func(off int, x float64) func([]byte) []byte { return putU(off, math.Float64bits(x)) }
	emptyHist := func(bins []byte) func([]byte) []byte { // n = Σbins = 0, given bins
		return func(b []byte) []byte {
			b = putU(prefixLen+32, 0)(b)
			b = putU(prefixLen+56, 0)(b)
			return append(b[:histHead], bins...)
		}
	}
	cases := []struct {
		name string
		data []byte
		dec  gob.GobDecoder
	}{
		{"sample: prefix", edit(sample, func(b []byte) []byte { b[0] = 'q'; return b }), &Sample{}},
		{"sample: version", edit(sample, func(b []byte) []byte { b[3] = 2; return b }), &Sample{}},
		{"sample: kind", edit(sample, func(b []byte) []byte { b[2] = 'W'; return b }), &Sample{}},
		{"sample: trailing bytes", append(sample[:len(sample):len(sample)], 0), &Sample{}},
		{"sample: short", sample[:sampleHead-1], &Sample{}},
		{"sample: count low", edit(sample, putU(prefixLen+1, 0)), &Sample{}},
		{"sample: count high", edit(sample, putU(prefixLen+1, 4)), &Sample{}},
		{"sample: count negative", edit(sample, putU(prefixLen+1, 1<<63)), &Sample{}},
		{"sample: sorted flag on {3,1,2}", edit(sample, func(b []byte) []byte { b[prefixLen] = 1; return b }), &Sample{}},
		{"sample: sorted flag 2", edit(sample, func(b []byte) []byte { b[prefixLen] = 2; return b }), &Sample{}},
		{"welford: trailing bytes", append(welford[:len(welford):len(welford)], 0), &Welford{}},
		{"welford: negative n", edit(welford, putU(prefixLen, 1<<63)), &Welford{}},
		{"welford: prefix", edit(welford, func(b []byte) []byte { b[1] = '3'; return b }), &Welford{}},
		{"hist: no bins", edit(hist, emptyHist(nil)), &LogHistogram{}},
		{"hist: one bin", edit(hist, emptyHist([]byte{0})), &LogHistogram{}},
		{"hist: n != Σbins", edit(hist, putU(prefixLen+32, 2)), &LogHistogram{}},
		{"hist: Welford n != n", edit(hist, putU(prefixLen+56, 2)), &LogHistogram{}},
		{"hist: negative count", edit(hist, func(b []byte) []byte {
			b = putU(prefixLen+32, 1<<63)(b)
			b = putU(prefixLen+56, 1<<63)(b)
			return binary.AppendUvarint(b[:histHead], 1<<63)
		}), &LogHistogram{}},
		{"hist: counts overflow", edit(hist, func(b []byte) []byte {
			b = binary.AppendUvarint(b[:histHead], math.MaxInt64)
			return binary.AppendUvarint(b, 2)
		}), &LogHistogram{}},
		{"hist: truncated uvarint", append(hist[:len(hist):len(hist)], 0x80), &LogHistogram{}},
		{"hist: non-minimal uvarint", append(hist[:len(hist):len(hist)], 0x80, 0x00), &LogHistogram{}},
		{"hist: zero floor", edit(hist, putF(prefixLen, 0)), &LogHistogram{}},
		{"hist: negative width", edit(hist, putF(prefixLen+16, -math.Ln2)), &LogHistogram{}},
		{"hist: NaN logFloor", edit(hist, putF(prefixLen+8, math.NaN())), &LogHistogram{}},
		{"hist: +Inf invWidth", edit(hist, putF(prefixLen+24, math.Inf(1))), &LogHistogram{}},
		{"hist: logFloor not ln floor", edit(hist, putF(prefixLen+8, 5)), &LogHistogram{}},
		{"hist: invWidth not 1/logWidth", edit(hist, putF(prefixLen+24, 2)), &LogHistogram{}},
		{"hist: prefix", edit(hist, func(b []byte) []byte { b[2] = 'S'; return b }), &LogHistogram{}},
	}
	for _, c := range cases {
		if err := c.dec.GobDecode(c.data); err == nil {
			t.Errorf("%s: decoded without error", c.name)
		}
	}
	// The untouched encodings still decode: the cases above fail for the
	// damage, not for the base bytes.
	for _, c := range []struct {
		data []byte
		dec  gob.GobDecoder
	}{{sample, &Sample{}}, {hist, &LogHistogram{}}, {welford, &Welford{}}} {
		if err := c.dec.GobDecode(c.data); err != nil {
			t.Errorf("%T: valid encoding rejected: %v", c.dec, err)
		}
	}
}

// FuzzCollectorDecode feeds arbitrary bytes to all three decoders. A
// decoder may refuse; it may not panic, and what it accepts must re-encode
// to the same bytes and survive Add, Percentile(s) and Merge.
func FuzzCollectorDecode(f *testing.F) {
	var w Welford
	w.Add(2)
	f.Add(wireOf(w))
	var s Sample
	for _, x := range oddFloats {
		s.Add(x)
	}
	f.Add(wireOf(s))
	s.Percentile(50)
	f.Add(wireOf(s))
	f.Add(wireOf(Sample{}))
	h := NewLogHistogram(1, 4, 1)
	h.Add(0.5)
	h.Add(300)
	f.Add(wireOf(*h))
	d := NewDelayHistogram()
	d.Add(0.01)
	f.Add(wireOf(*d))
	f.Fuzz(func(t *testing.T, data []byte) {
		var w Welford
		if w.GobDecode(data) == nil {
			if !bytes.Equal(wireOf(w), data) {
				t.Fatalf("Welford re-encodes differently")
			}
			w.Add(1)
			w.Merge(w)
		}
		var s Sample
		if s.GobDecode(data) == nil {
			if !bytes.Equal(wireOf(s), data) {
				t.Fatalf("Sample re-encodes differently")
			}
			s.Percentiles(0, 50, 99, 100)
			s.Merge(&s)
			s.Add(1)
			s.Percentile(50)
		}
		var h LogHistogram
		if h.GobDecode(data) == nil {
			if !bytes.Equal(wireOf(h), data) {
				t.Fatalf("LogHistogram re-encodes differently")
			}
			h.Percentiles(0, 50, 99, 100)
			h.Merge(&h)
			for _, x := range oddFloats {
				h.Add(x)
			}
			h.Percentile(50)
		}
	})
}

// TestUnfilledHistogramHoldsNoBins: a histogram nothing fills allocates no
// bins, yet encodes, merges and reads exactly like one whose observations
// were all reset away.
func TestUnfilledHistogramHoldsNoBins(t *testing.T) {
	h := NewDelayHistogram()
	if h.bins != nil {
		t.Fatalf("a new histogram holds %d bins", len(h.bins))
	}
	reset := NewDelayHistogram()
	reset.Add(0.01)
	reset.Reset()
	if !bytes.Equal(wireOf(h), wireOf(reset)) {
		t.Fatal("an unfilled histogram encodes unlike an emptied one")
	}
	h.Merge(NewDelayHistogram())
	if h.bins != nil || h.N() != 0 || h.Percentile(50) != 0 || h.Mean() != 0 {
		t.Fatalf("merging an empty histogram filled this one: %d bins, n %d", len(h.bins), h.N())
	}
	full := NewDelayHistogram()
	for i := 1; i <= 100; i++ {
		full.Add(float64(i) * 1e-3)
	}
	h.Merge(full)
	reset.Merge(full)
	if !bytes.Equal(wireOf(h), wireOf(full)) || !bytes.Equal(wireOf(reset), wireOf(full)) {
		t.Fatal("merging into an empty histogram does not copy the other")
	}
	var got LogHistogram
	gobRoundTrip(t, NewDelayHistogram(), &got)
	got.Add(0.5)
	if got.N() != 1 || got.Percentile(50) != 0.5 {
		t.Fatalf("a decoded empty histogram reads n %d, median %g after one Add", got.N(), got.Percentile(50))
	}
}
