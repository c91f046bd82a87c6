package stats

import (
	"encoding/binary"
	"errors"
	"math"
	"math/bits"
	"sort"
)

// Gob support for the collectors whose state lives in unexported fields.
// The fleet protocol (internal/fleet) ships driver results between worker
// and coordinator processes on one gob stream per connection; gob silently
// drops unexported fields, so without these methods a Welford, Sample or
// LogHistogram would arrive empty and cross-rep aggregation under -workers
// would diverge from in-process runs.
//
// Each collector encodes itself as flat little-endian bytes, not as a
// nested gob stream: the outer stream already carries the bytes, and a
// fresh gob encoder and decoder per value resent type definitions every
// time (398 allocations per 16 384-observation Sample round trip on
// BenchmarkSampleWire, against 4). Every float64 crosses as its raw bits
// (NaN payloads, ±0 and subnormals included) and Sample keeps its
// observation order, so merged moments are identical to the in-process
// fold. The layouts, after a 4-byte prefix ('p', '2', kind, version):
//
//	Welford       n, mean, m2                          (3 × 8 bytes)
//	Sample        sorted (1 byte), Welford, then one
//	              8-byte float per observation, in order
//	LogHistogram  floor, logFloor, logWidth, invWidth, n, min, max,
//	              Welford, then one uvarint per bin
//
// Decoders reject any state the collectors cannot reach themselves —
// counts that disagree, a sorted flag on unsorted data, a geometry
// NewLogHistogram cannot build — so bytes from a damaged or foreign peer
// fail the record instead of panicking later in aggregation. Sizes derive
// from len(data), never from a header count.

const wireVersion = 1

const (
	welfordKind = 'W'
	sampleKind  = 'S'
	histKind    = 'H'
)

const (
	prefixLen  = 4
	welfordLen = 3 * 8
	sampleHead = prefixLen + 1 + welfordLen
	histHead   = prefixLen + 7*8 + welfordLen
)

var errWire = errors.New("stats: malformed collector encoding")

func putPrefix(b []byte, kind byte) {
	b[0], b[1], b[2], b[3] = 'p', '2', kind, wireVersion
}

func hasPrefix(b []byte, kind byte) bool {
	return len(b) >= prefixLen && b[0] == 'p' && b[1] == '2' && b[2] == kind && b[3] == wireVersion
}

func putFloat(b []byte, x float64) { binary.LittleEndian.PutUint64(b, math.Float64bits(x)) }

func getFloat(b []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }

// putFloats writes xs to the front of b and returns the rest of b.
func putFloats(b []byte, xs []float64) []byte {
	for i, x := range xs {
		putFloat(b[8*i:], x)
	}
	return b[8*len(xs):]
}

func (w *Welford) put(b []byte) {
	binary.LittleEndian.PutUint64(b, uint64(w.n))
	putFloat(b[8:], w.mean)
	putFloat(b[16:], w.m2)
}

// get reads a Welford, refusing a negative count.
func (w *Welford) get(b []byte) error {
	n := int64(binary.LittleEndian.Uint64(b))
	if n < 0 {
		return errWire
	}
	*w = Welford{n: n, mean: getFloat(b[8:]), m2: getFloat(b[16:])}
	return nil
}

// GobEncode implements gob.GobEncoder (value receiver: Welford is embedded
// by value in result structs).
func (w Welford) GobEncode() ([]byte, error) {
	b := make([]byte, prefixLen+welfordLen)
	putPrefix(b, welfordKind)
	w.put(b[prefixLen:])
	return b, nil
}

// GobDecode implements gob.GobDecoder.
func (w *Welford) GobDecode(data []byte) error {
	if len(data) != prefixLen+welfordLen || !hasPrefix(data, welfordKind) {
		return errWire
	}
	return w.get(data[prefixLen:])
}

// GobEncode implements gob.GobEncoder. Observation order is preserved so a
// post-transfer Merge accumulates in the same order as in-process. The
// flattened and the still-chunked observations are written straight into
// the one exact-size result.
func (s Sample) GobEncode() ([]byte, error) {
	n := len(s.xs) + s.pending()
	b := make([]byte, sampleHead+8*n)
	putPrefix(b, sampleKind)
	if s.sorted {
		b[prefixLen] = 1
	}
	s.w.put(b[prefixLen+1:])
	rest := putFloats(b[sampleHead:], s.xs)
	if s.live > 0 {
		for _, c := range s.chunks[:s.live-1] {
			rest = putFloats(rest, c)
		}
		putFloats(rest, s.tail)
	}
	return b, nil
}

// GobDecode implements gob.GobDecoder.
func (s *Sample) GobDecode(data []byte) error {
	if len(data) < sampleHead || (len(data)-sampleHead)%8 != 0 || !hasPrefix(data, sampleKind) {
		return errWire
	}
	sorted := data[prefixLen]
	if sorted > 1 {
		return errWire
	}
	var w Welford
	if err := w.get(data[prefixLen+1:]); err != nil {
		return err
	}
	body := data[sampleHead:]
	if w.n != int64(len(body)/8) {
		return errWire
	}
	var xs []float64
	if len(body) > 0 {
		xs = make([]float64, len(body)/8)
		for i := range xs {
			xs[i] = getFloat(body[8*i:])
		}
	}
	if sorted == 1 && !sort.Float64sAreSorted(xs) {
		return errWire
	}
	*s = Sample{xs: xs, sorted: sorted == 1, w: w}
	return nil
}

// GobEncode implements gob.GobEncoder. Bins travel as uvarints, so the
// mostly-empty delay histogram costs about one byte per bin.
func (h LogHistogram) GobEncode() ([]byte, error) {
	size := histHead
	for _, c := range h.bins {
		size += uvarintLen(uint64(c))
	}
	if h.bins == nil {
		size += h.nbins // no observation yet: every bin is one zero byte
	}
	b := make([]byte, histHead, size)
	putPrefix(b, histKind)
	for i, x := range [...]float64{h.floor, h.logFloor, h.logWidth, h.invWidth} {
		putFloat(b[prefixLen+8*i:], x)
	}
	binary.LittleEndian.PutUint64(b[prefixLen+32:], uint64(h.n))
	putFloat(b[prefixLen+40:], h.min)
	putFloat(b[prefixLen+48:], h.max)
	h.w.put(b[prefixLen+56:])
	for _, c := range h.bins {
		b = binary.AppendUvarint(b, uint64(c))
	}
	return b[:size], nil // unallocated bins: the zero bytes make wrote
}

// GobDecode implements gob.GobDecoder. The geometry must be one
// NewLogHistogram builds (logFloor = ln floor, invWidth = 1/logWidth, all
// finite and the widths positive) with at least the underflow bin and one
// log bin, and the counts must add up: Add and Percentile then stay in
// range whatever the bytes were.
func (h *LogHistogram) GobDecode(data []byte) error {
	if len(data) < histHead || !hasPrefix(data, histKind) {
		return errWire
	}
	var g [4]float64
	for i := range g {
		g[i] = getFloat(data[prefixLen+8*i:])
	}
	floor, logFloor, logWidth, invWidth := g[0], g[1], g[2], g[3]
	if !finitePositive(floor) || !finitePositive(logWidth) || !finitePositive(invWidth) ||
		logFloor != math.Log(floor) || invWidth != 1/logWidth {
		return errWire
	}
	n := int64(binary.LittleEndian.Uint64(data[prefixLen+32:]))
	var w Welford
	if err := w.get(data[prefixLen+56:]); err != nil {
		return err
	}
	if n < 0 || w.n != n {
		return errWire
	}
	body := data[histHead:]
	nBins := 0
	for _, c := range body {
		if c < 0x80 {
			nBins++
		}
	}
	if nBins < 2 || body[len(body)-1] >= 0x80 {
		return errWire
	}
	bins := make([]int64, nBins)
	var sum uint64
	for i := range bins {
		c, k := binary.Uvarint(body)
		if k <= 0 || (k > 1 && body[k-1] == 0) || c > math.MaxInt64 || sum+c > math.MaxInt64 {
			return errWire // truncated, overlong, non-minimal, or a negative count
		}
		bins[i] = int64(c)
		sum += c
		body = body[k:]
	}
	if sum != uint64(n) {
		return errWire
	}
	*h = LogHistogram{
		floor: floor, logFloor: logFloor, logWidth: logWidth, invWidth: invWidth,
		bins: bins, nbins: nBins, n: n, min: getFloat(data[prefixLen+40:]), max: getFloat(data[prefixLen+48:]), w: w,
	}
	h.tab = tableFor(h.geometry())
	return nil
}

// uvarintLen is the length of binary.AppendUvarint's encoding of v.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }
