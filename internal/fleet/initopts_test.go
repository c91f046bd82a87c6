package fleet

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"pi2/internal/campaign"
)

// What an ExecOptions field may do to a campaign's records.
const (
	// HostLocal fields choose where and how cells run: they move no record.
	HostLocal = "host-local"
	// Identity fields are knobs a record depends on: they are part of the
	// matrix identity, so a resume under another value misses.
	Identity = "identity"
	// PerMatrix fields are filled in by the drivers for each matrix. The
	// (family, spec) identity travels as its own message fields and is
	// checked by the worker rebuilding the matrix.
	PerMatrix = "per-matrix"
)

// ExecField classifies one campaign.ExecOptions field.
type ExecField struct {
	Class string
	// Init says the coordinator's init message carries the field to every
	// worker, because RunOne reads it.
	Init bool
}

// ExecFields classifies every campaign.ExecOptions field. This test checks
// the Init column, TestExecKnobContract the classes, so a new field fails
// until it is classified here. The deprecated FastForward is read by
// nothing: fast-forward is part of the matrix spec.
var ExecFields = map[string]ExecField{
	"Jobs": {HostLocal, false}, "Dispatch": {HostLocal, false},
	"Collector": {HostLocal, false}, "Progress": {HostLocal, false},
	"Journal": {HostLocal, false}, "Resume": {HostLocal, false}, "FastForward": {HostLocal, false},
	"Watchdog": {HostLocal, true}, "Retries": {HostLocal, true}, "RetryBackoff": {HostLocal, true},

	"BaseSeed": {Identity, true}, "Shards": {Identity, true},
	"Family": {PerMatrix, false}, "Spec": {PerMatrix, false}, "SkipDone": {PerMatrix, false},
}

// TestInitCarriesCellOptions sets every ExecOptions field that init
// carries to a random non-zero value, sends the coordinator's init message
// through a real wire and rebuilds the worker's ExecOptions from what
// arrives. A field that does not survive is a knob that would run
// differently on a worker than in-process.
func TestInitCarriesCellOptions(t *testing.T) {
	typ := reflect.TypeOf(campaign.ExecOptions{})
	for i := 0; i < typ.NumField(); i++ {
		switch f := ExecFields[typ.Field(i).Name]; {
		case f.Class == "":
			t.Fatalf("ExecOptions.%s is not classified in ExecFields", typ.Field(i).Name)
		case f.Class == Identity && !f.Init:
			t.Errorf("ExecOptions.%s moves records, so init must carry it", typ.Field(i).Name)
		}
	}
	if len(ExecFields) != typ.NumField() {
		t.Fatalf("ExecFields classifies %d fields, ExecOptions has %d", len(ExecFields), typ.NumField())
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		var in campaign.ExecOptions
		v := reflect.ValueOf(&in).Elem()
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if !ExecFields[f.Name].Init {
				continue
			}
			for v.Field(i).IsZero() {
				x, ok := quick.Value(f.Type, rng)
				if !ok {
					t.Fatalf("ExecOptions.%s (%s): cannot generate a value; carry it in init or clear its Init", f.Name, f.Type)
				}
				v.Field(i).Set(x)
			}
		}

		var buf bytes.Buffer
		if err := newWire(&buf).send(initMsg(in)); err != nil {
			t.Fatal(err)
		}
		m, err := newWire(&buf).recv()
		if err != nil {
			t.Fatal(err)
		}
		out := reflect.ValueOf(m.cellOptions())
		for i := 0; i < typ.NumField(); i++ {
			name := typ.Field(i).Name
			if !ExecFields[name].Init {
				continue
			}
			if got, want := out.Field(i).Interface(), v.Field(i).Interface(); !reflect.DeepEqual(got, want) {
				t.Fatalf("ExecOptions.%s = %v reached the worker as %v: carry it in init or clear its Init",
					name, want, got)
			}
		}
	}
}
