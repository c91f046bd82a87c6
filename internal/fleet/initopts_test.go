package fleet

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"pi2/internal/campaign"
)

// hostLocal names the ExecOptions fields that init deliberately does not
// carry: the pool width, the coordinator's sinks and dispatcher, resume
// bookkeeping, the (family, spec) matrix identity, which travels as its
// own message fields and is checked by the worker rebuilding the matrix,
// and the deprecated FastForward, which nothing reads (fast-forward is part
// of the matrix spec). Every other field is read by RunOne and must reach
// the worker.
var hostLocal = map[string]bool{
	"Jobs": true, "Progress": true, "Collector": true, "Dispatch": true,
	"Journal": true, "Resume": true, "SkipDone": true,
	"Family": true, "Spec": true, "FastForward": true,
}

// TestInitCarriesCellOptions sets every ExecOptions field that is not
// host-local to a random non-zero value, sends the coordinator's init
// message through a real wire and rebuilds the worker's ExecOptions from
// what arrives. A field that does not survive is a knob that would run
// differently on a worker than in-process, so a new ExecOptions field
// fails here until it is carried or listed as host-local.
func TestInitCarriesCellOptions(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	typ := reflect.TypeOf(campaign.ExecOptions{})
	for trial := 0; trial < 20; trial++ {
		var in campaign.ExecOptions
		v := reflect.ValueOf(&in).Elem()
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if hostLocal[f.Name] {
				continue
			}
			for v.Field(i).IsZero() {
				x, ok := quick.Value(f.Type, rng)
				if !ok {
					t.Fatalf("ExecOptions.%s (%s): cannot generate a value; carry it in init or list it as host-local", f.Name, f.Type)
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
			if hostLocal[name] {
				continue
			}
			if got, want := out.Field(i).Interface(), v.Field(i).Interface(); !reflect.DeepEqual(got, want) {
				t.Fatalf("ExecOptions.%s = %v reached the worker as %v: carry it in init or list it as host-local",
					name, want, got)
			}
		}
	}

	// The carried half is exactly what RunOne reads; pin it so a change
	// to either list is a deliberate one.
	var carried []string
	for i := 0; i < typ.NumField(); i++ {
		if !hostLocal[typ.Field(i).Name] {
			carried = append(carried, typ.Field(i).Name)
		}
	}
	sort.Strings(carried)
	want := []string{"BaseSeed", "Retries", "RetryBackoff", "Shards", "Watchdog"}
	if !reflect.DeepEqual(carried, want) {
		t.Errorf("init carries %v, want %v", carried, want)
	}
}
