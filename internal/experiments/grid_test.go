package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"pi2/internal/campaign"
	"pi2/internal/stats"
)

// must returns a driver's result, panicking on its failed-cells error.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// TestGridFoldsInRepOrderAndNamesFailures runs a matrix of three groups of
// three reps where two cells panic, at several pool widths: every group
// folds its records in rep order, and the error names exactly the failed
// cells, in matrix order, with their params and panic text.
func TestGridFoldsInRepOrderAndNamesFailures(t *testing.T) {
	const reps = 3
	var tasks []campaign.Task
	for i := 0; i < 3*reps; i++ {
		i := i
		tasks = append(tasks, campaign.Task{
			Name: "g", SeedIndex: i, Params: map[string]any{"i": i},
			Run: func(*campaign.TaskCtx) any {
				if i == 7 || i == 2 {
					panic(fmt.Sprintf("cell %d", i))
				}
				return i
			},
		})
	}
	want := "2 of 9 cells failed:\n  g[2] map[i:2]: panic: cell 2\n  g[7] map[i:7]: panic: cell 7"
	for _, jobs := range []int{1, 4, 9} {
		folds, err := grid(tasks, campaign.ExecOptions{Jobs: jobs, BaseSeed: 1}, reps, func(recs []campaign.RunRecord) string {
			return fmt.Sprint(okResults[int](recs))
		})
		if got := fmt.Sprint(folds); got != "[[0 1] [3 4 5] [6 8]]" {
			t.Errorf("jobs=%d: folds %s, want [[0 1] [3 4 5] [6 8]]", jobs, got)
		}
		if err == nil || err.Error() != want {
			t.Errorf("jobs=%d: error %v, want %q", jobs, err, want)
		}
	}
	if _, err := grid(tasks[:2], campaign.ExecOptions{Jobs: 2}, 1, cell[int]); err != nil {
		t.Errorf("healthy grid: %v", err)
	}
}

// refusingQuantiler is a delay histogram that refuses every observation:
// each simulation cell that collects into it panics, while the stand-ins
// the drivers build for failed cells still read as empty.
type refusingQuantiler struct{ *stats.LogHistogram }

func (refusingQuantiler) Add(float64)         { panic("collector refuses Add") }
func (refusingQuantiler) AddN(float64, int64) { panic("collector refuses AddN") }

// analyticExperiments run no cells: they must print the same bytes and
// return nil whatever the collectors do.
var analyticExperiments = map[string]bool{"table1": true, "fig4": true, "fig5": true, "fig7": true}

// TestFailedCellsFailTheirExperiment makes every simulation cell panic and
// runs every registered experiment ("all", the views of its shared grids,
// and heavy): each one that runs cells must still print its table and
// return an error naming every failed cell, whichever way its driver folds
// the grid.
func TestFailedCellsFailTheirExperiment(t *testing.T) {
	g := campaign.Grid{Quick: true, TimeDiv: 400}
	run := func(name string) (string, []campaign.RunRecord, error) {
		exp, ok := campaign.Lookup(name)
		if !ok {
			t.Fatalf("experiment %q is not registered", name)
		}
		col := &campaign.Collector{}
		var out bytes.Buffer
		err := exp.Run(&campaign.Options{Grid: g, ExecOptions: campaign.ExecOptions{BaseSeed: 1, Jobs: 2, Collector: col}}, &out)
		return out.String(), col.Records(), err
	}
	healthy := map[string]string{}
	for name := range analyticExperiments {
		healthy[name], _, _ = run(name)
	}

	defer func(orig func() stats.Quantiler) { newQuantiler = orig }(newQuantiler)
	newQuantiler = func() stats.Quantiler { return refusingQuantiler{stats.NewDelayHistogram()} }
	for _, name := range campaign.Names() {
		out, recs, err := run(name)
		if analyticExperiments[name] {
			if err != nil || len(recs) != 0 || out != healthy[name] {
				t.Errorf("%s: error %v, %d cells, output changed %v; want nil, 0, false",
					name, err, len(recs), out != healthy[name])
			}
			continue
		}
		if len(recs) == 0 {
			t.Errorf("%s ran no cells", name)
			continue
		}
		if !strings.HasPrefix(out, "# ") {
			t.Errorf("%s printed no table: %q", name, out)
		}
		if err == nil {
			t.Errorf("%s: %d failed cells, no error", name, len(recs))
			continue
		}
		for _, rec := range recs {
			if rec.Err == "" {
				t.Errorf("%s: cell %s[%d] ran on a refusing collector", name, rec.Name, rec.Index)
			}
			if cell := fmt.Sprintf("%s[%d] %v: %s", rec.Name, rec.Index, rec.Params, rec.Err); !strings.Contains(err.Error(), cell) {
				t.Errorf("%s: error does not name %q:\n%v", name, cell, err)
			}
		}
		if (name == "chaos" || name == "interop") && strings.Count(out, "FAILED\n") != len(recs) {
			t.Errorf("%s: %d FAILED rows for %d failed cells", name, strings.Count(out, "FAILED\n"), len(recs))
		}
	}
}

// TestFig11PrintsAFailedArm: a failed cell stands in as emptyResult, which
// has no UDP sources, and the table must still print when only one arm of
// the UDP load failed.
func TestFig11PrintsAFailedArm(t *testing.T) {
	r := must(Fig11(campaign.Options{Grid: campaign.Grid{Quick: true, TimeDiv: 400}, ExecOptions: campaign.ExecOptions{Jobs: 2}}))
	r.Runs["5 TCP + 2 UDP"]["pie"] = emptyResult()
	var out bytes.Buffer
	r.Print(&out)
	if !strings.Contains(out.String(), "## load: 5 TCP + 2 UDP") {
		t.Errorf("the UDP load's table is missing:\n%s", out.String())
	}
}
