package stats

import (
	"bytes"
	"encoding/gob"
)

// Gob support for the collectors whose state lives in unexported fields.
// The fleet protocol (internal/fleet) ships driver results between worker
// and coordinator processes as gob blobs; gob silently drops unexported
// fields, so without these methods a Welford, Sample or LogHistogram would
// arrive empty and cross-rep aggregation under -workers would diverge from
// in-process runs. Every float64 crosses bit-exactly (gob preserves the
// bits), and Sample keeps its observation order, so merged moments are
// identical to the in-process fold.

type welfordWire struct {
	N        int64
	Mean, M2 float64
}

// GobEncode implements gob.GobEncoder (value receiver: Welford is embedded
// by value in result structs).
func (w Welford) GobEncode() ([]byte, error) {
	return gobBytes(welfordWire{N: w.n, Mean: w.mean, M2: w.m2})
}

// GobDecode implements gob.GobDecoder.
func (w *Welford) GobDecode(data []byte) error {
	var v welfordWire
	if err := gobValue(data, &v); err != nil {
		return err
	}
	w.n, w.mean, w.m2 = v.N, v.Mean, v.M2
	return nil
}

type sampleWire struct {
	Xs     []float64
	Sorted bool
	W      Welford
}

// GobEncode implements gob.GobEncoder. Observation order is preserved so a
// post-transfer Merge accumulates in the same order as in-process. The
// value receiver cannot flatten in place, so chunked observations are
// copied after the flattened ones.
func (s Sample) GobEncode() ([]byte, error) {
	xs := s.xs
	if s.live > 0 {
		xs = s.appendChunks(append(make([]float64, 0, len(s.xs)+s.pending()), s.xs...))
	}
	return gobBytes(sampleWire{Xs: xs, Sorted: s.sorted, W: s.w})
}

// GobDecode implements gob.GobDecoder.
func (s *Sample) GobDecode(data []byte) error {
	var v sampleWire
	if err := gobValue(data, &v); err != nil {
		return err
	}
	*s = Sample{xs: v.Xs, sorted: v.Sorted, w: v.W}
	return nil
}

type logHistWire struct {
	Floor, LogFloor, LogWidth, InvWidth float64
	Bins                                []int64
	N                                   int64
	Min, Max                            float64
	W                                   Welford
}

// GobEncode implements gob.GobEncoder.
func (h LogHistogram) GobEncode() ([]byte, error) {
	return gobBytes(logHistWire{
		Floor: h.floor, LogFloor: h.logFloor, LogWidth: h.logWidth,
		InvWidth: h.invWidth, Bins: h.bins, N: h.n, Min: h.min, Max: h.max,
		W: h.w,
	})
}

// GobDecode implements gob.GobDecoder.
func (h *LogHistogram) GobDecode(data []byte) error {
	var v logHistWire
	if err := gobValue(data, &v); err != nil {
		return err
	}
	h.floor, h.logFloor, h.logWidth, h.invWidth = v.Floor, v.LogFloor, v.LogWidth, v.InvWidth
	h.bins, h.n, h.min, h.max, h.w = v.Bins, v.N, v.Min, v.Max, v.W
	h.tab = tableFor(h.geometry())
	return nil
}

func gobBytes(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func gobValue(data []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(data)).Decode(v)
}
