package campaign

import (
	"bytes"
	"encoding/gob"
	"time"
)

// The fleet protocol moves RunRecords between processes as gob blobs, not
// JSON: Result is an `any` holding driver-defined structs (gob carries the
// concrete type, JSON would flatten it), Params maps hold ints that JSON
// would round-trip into float64s (breaking `.(int)` assertions in
// aggregation), and gob preserves float64 bits exactly — which the
// byte-identity contract between -workers and -jobs depends on.

func init() {
	// Concrete types that travel inside `any` fields (Params values,
	// Result). Driver result types register themselves next to their
	// task sources; these are the engine-level ones.
	gob.Register(time.Duration(0))
	gob.Register(map[string]any{})
	gob.Register([]any{})
}

// RegisterWireType records a concrete type that may appear in a
// RunRecord's Result or Params when crossing the fleet protocol. Drivers
// call it at init next to RegisterSource.
func RegisterWireType(v any) { gob.Register(v) }

// EncodeRecord serializes one RunRecord as a self-contained gob stream.
// Only the journal calls it: on the fleet wire a record crosses as a
// value inside the connection's one gob stream (internal/fleet/proto.go).
func EncodeRecord(rec *RunRecord) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(rec); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeRecord reverses EncodeRecord.
func DecodeRecord(data []byte) (RunRecord, error) {
	var rec RunRecord
	err := gob.NewDecoder(bytes.NewReader(data)).Decode(&rec)
	return rec, err
}
