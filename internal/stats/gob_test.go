package stats

import (
	"bytes"
	"encoding/gob"
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
