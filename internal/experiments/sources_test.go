package experiments

import (
	"math/rand"
	"reflect"
	"testing"
	testquick "testing/quick"
	"time"

	"pi2/internal/campaign"
)

// nopJournal makes execFor attach (family, spec), as a real journal,
// resume set or dispatcher does, without recording anything.
type nopJournal struct{}

func (nopJournal) BeginSegment(string, []byte, int) {}
func (nopJournal) Record(campaign.RunRecord)        {}

// TestGridSpecBytes pins the spec bytes execFor attaches. They are a file
// format: journals key their segments by the SHA-256 of the matrix key that
// starts with these bytes (so a change makes -resume silently miss every
// cell of an older journal), and
// bench/ writes the same JSON by hand for its fleet workloads.
func TestGridSpecBytes(t *testing.T) {
	for _, c := range []struct {
		family string
		o      campaign.Options
		spec   gridSpec
		want   string
	}{
		{"sweep", campaign.Options{Grid: campaign.Grid{Quick: true, TimeDiv: 20, FF: true, Reps: 2, Target: 15 * time.Millisecond}},
			gridSpec{}, `{"quick":true,"timediv":20,"ff":true,"reps":2,"target_ns":15000000}`},
		{"sweep", campaign.Options{}, gridSpec{}, `{}`},
		{"fig6", campaign.Options{Grid: campaign.Grid{Quick: true, TimeDiv: 20}, ExecOptions: campaign.ExecOptions{BaseSeed: 7, Jobs: 3, Shards: 4}},
			gridSpec{}, `{"quick":true,"timediv":20}`},
		{"combos", campaign.Options{Grid: campaign.Grid{Quick: true, TimeDiv: 20}},
			gridSpec{Combos: [][2]int{{1, 0}, {2, 3}}}, `{"quick":true,"timediv":20,"combos":[[1,0],[2,3]]}`},
		{"dualq", campaign.Options{Grid: campaign.Grid{Quick: true, Reps: 3}},
			gridSpec{NA: 1, NB: 2}, `{"quick":true,"reps":3,"na":1,"nb":2}`},
		{"dualq-fq", campaign.Options{Grid: campaign.Grid{TimeDiv: 5, Target: 15 * time.Millisecond}},
			gridSpec{NA: 10, NB: 1}, `{"timediv":5,"target_ns":15000000,"na":10,"nb":1}`},
		{"heavy", campaign.Options{Grid: campaign.Grid{Quick: true, TimeDiv: 20, FF: true, Target: 1500 * time.Microsecond}},
			gridSpec{}, `{"quick":true,"timediv":20,"ff":true,"target_ns":1500000}`},
	} {
		c.o.Journal = nopJournal{}
		e := execFor(c.o, c.family, c.spec)
		if e.Family != c.family || string(e.Spec) != c.want {
			t.Errorf("%s: spec %s %s, want %s", c.family, e.Family, e.Spec, c.want)
		}
	}

	// A plain in-process run skips the spec, drops the per-matrix fields
	// Options holds (a stale SkipDone would skip cells of every grid) and
	// applies the exec defaults.
	stale := campaign.ExecOptions{Family: "fig6", Spec: []byte(`{}`), SkipDone: map[int]bool{0: true}}
	e := execFor(campaign.Options{Grid: campaign.Grid{Quick: true}, ExecOptions: stale}, "sweep", gridSpec{})
	if e.Family != "" || e.Spec != nil || e.SkipDone != nil || e.Jobs != 1 || e.BaseSeed != 1 {
		t.Errorf("in-process exec options: family %q spec %q skip %v jobs %d seed %d, want \"\" nil nil 1 1",
			e.Family, e.Spec, e.SkipDone, e.Jobs, e.BaseSeed)
	}
}

// TestGridRoundTrip sets every campaign.Grid field and every gridSpec
// extra to a random non-zero value and checks that a registered task
// source rebuilds exactly that grid from the spec execFor attaches. A new
// Grid field then cannot be silently dropped on its way to a fleet worker.
func TestGridRoundTrip(t *testing.T) {
	var got campaign.Options
	var gotSpec gridSpec
	campaign.RegisterSource("gridroundtrip", gridSource(func(o campaign.Options, g gridSpec) []campaign.Task {
		got, gotSpec = o, g
		return nil
	}))
	src, _ := campaign.LookupSource("gridroundtrip")
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		var g campaign.Grid
		v := reflect.ValueOf(&g).Elem()
		for i := 0; i < v.NumField(); i++ {
			for v.Field(i).IsZero() {
				x, ok := testquick.Value(v.Field(i).Type(), rng)
				if !ok {
					t.Fatalf("Grid.%s: cannot generate a value", v.Type().Field(i).Name)
				}
				v.Field(i).Set(x)
			}
		}
		extras := gridSpec{NA: 1 + rng.Intn(100), NB: 1 + rng.Intn(100), Combos: [][2]int{{rng.Intn(9), 1 + rng.Intn(9)}}}
		o := campaign.Options{Grid: g, ExecOptions: campaign.ExecOptions{Jobs: 3, Shards: 2, BaseSeed: rng.Int63(), Journal: nopJournal{}}}
		if _, err := src(execFor(o, "gridroundtrip", extras).Spec); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, campaign.Options{Grid: g}) {
			t.Fatalf("grid %+v rebuilt as options %+v", g, got)
		}
		if gotSpec.NA != extras.NA || gotSpec.NB != extras.NB || !reflect.DeepEqual(gotSpec.Combos, extras.Combos) {
			t.Fatalf("extras %+v rebuilt as %+v", extras, gotSpec)
		}
	}
}

// TestSourcesRebuildInProcessMatrix checks that every registered family's
// task source builds the same matrix, name by name, as the driver builds
// in-process from the same options.
func TestSourcesRebuildInProcessMatrix(t *testing.T) {
	o := campaign.Options{Grid: campaign.Grid{Quick: true, TimeDiv: 20, FF: true, Reps: 2, Target: 15 * time.Millisecond},
		ExecOptions: campaign.ExecOptions{Journal: nopJournal{}}}
	combos := [][2]int{{1, 1}, {2, 0}}
	for _, c := range []struct {
		family string
		spec   gridSpec
		local  []campaign.Task
	}{
		{"fig6", gridSpec{}, fig6Tasks(o)},
		{"fig11", gridSpec{}, fig11Tasks(o)},
		{"fig12", gridSpec{}, fig12Tasks(o)},
		{"fig13", gridSpec{}, fig13Tasks(o)},
		{"fig14", gridSpec{}, fig14Tasks(o)},
		{"fct", gridSpec{}, fctTasks(o)},
		{"sweep", gridSpec{}, sweepTasks(o)},
		{"rttfair", gridSpec{}, rttfairTasks(o)},
		{"chaos", gridSpec{}, chaosTasks(o)},
		{"interop", gridSpec{}, interopTasks(o)},
		{"heavy", gridSpec{}, heavyTasks(o)},
		{"combos", gridSpec{Combos: combos}, combosTasks(o, combos)},
		{"dualq", gridSpec{NA: 2, NB: 3}, dualqTasks(o, 2, 3)},
		{"dualq-fq", gridSpec{NA: 2, NB: 3}, fqTasks(o, 2, 3)},
	} {
		src, ok := campaign.LookupSource(c.family)
		if !ok {
			t.Fatalf("%s: no task source", c.family)
		}
		remote, err := src(execFor(o, c.family, c.spec).Spec)
		if err != nil {
			t.Fatalf("%s: %v", c.family, err)
		}
		if len(remote) != len(c.local) {
			t.Fatalf("%s: source built %d tasks, driver %d", c.family, len(remote), len(c.local))
		}
		for i := range remote {
			if remote[i].Name != c.local[i].Name || remote[i].SeedIndex != c.local[i].SeedIndex {
				t.Fatalf("%s[%d]: source built %s/%d, driver %s/%d", c.family, i,
					remote[i].Name, remote[i].SeedIndex, c.local[i].Name, c.local[i].SeedIndex)
			}
		}
	}
}
