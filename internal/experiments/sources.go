package experiments

import (
	"encoding/json"
	"errors"
	"fmt"

	"pi2/internal/campaign"
	"pi2/internal/stats"
)

// gridSpec is the wire form of a grid family's matrix: the grid half of
// campaign.Options plus the few extras a family takes as arguments. A
// fleet worker receives (family, gridSpec) and rebuilds the exact task
// matrix the coordinator built — closures cannot cross a process boundary,
// but the recipe for them can. Execution-side knobs (seed, shards,
// watchdog, retries) travel in the fleet init message instead.
type gridSpec struct {
	campaign.Grid
	NA     int      `json:"na,omitempty"`
	NB     int      `json:"nb,omitempty"`
	Combos [][2]int `json:"combos,omitempty"`
}

// execFor returns the invocation's exec options for one grid family, with
// the drivers' defaults applied (serial pool, base seed 1) and the
// per-matrix fields Options may hold dropped. The (family,
// spec) pair is attached whenever anything needs it: a dispatcher (worker
// processes rebuild the matrix from it), a journal or a resume set (both
// key on the matrix identity built from it). Plain in-process runs skip
// the spec marshalling entirely.
func execFor(o campaign.Options, family string, spec gridSpec) campaign.ExecOptions {
	e := o.ExecOptions
	e.Family, e.Spec, e.SkipDone = "", nil, nil
	e.Jobs = max(e.Jobs, 1)
	if e.BaseSeed == 0 {
		e.BaseSeed = 1
	}
	if e.Dispatch == nil && e.Journal == nil && e.Resume == nil {
		return e
	}
	spec.Grid = o.Grid
	b, err := json.Marshal(spec)
	if err != nil {
		panic(fmt.Sprintf("experiments: marshal %s grid spec: %v", family, err))
	}
	e.Family = family
	e.Spec = b
	return e
}

// grid runs a matrix organized as consecutive rep groups (indices
// [g*reps, (g+1)*reps) belong to group g) and folds each group, with its
// records in rep order, into one point as soon as the group completes.
// Records stream: only in-flight groups are held, and folding in rep order
// rather than arrival order keeps float aggregates byte-identical at any
// parallelism. fold sees failed cells too (Err set, Result nil) and decides
// what stands in for them. The points come back in matrix order, with an
// error naming every failed cell in matrix order.
func grid[P any](tasks []campaign.Task, opt campaign.ExecOptions, reps int, fold func(recs []campaign.RunRecord) P) ([]P, error) {
	out := make([]P, len(tasks)/reps)
	pending := make(map[int][]campaign.RunRecord)
	got := make(map[int]int)
	failed := make(map[int]string)
	campaign.ExecuteStream(tasks, opt, func(rec campaign.RunRecord) {
		if rec.Err != "" {
			failed[rec.Index] = fmt.Sprintf("%s[%d] %v: %s", rec.Name, rec.Index, rec.Params, rec.Err)
		}
		g := rec.Index / reps
		buf := pending[g]
		if buf == nil {
			buf = make([]campaign.RunRecord, reps)
			pending[g] = buf
		}
		buf[rec.Index%reps] = rec
		got[g]++
		if got[g] == reps {
			delete(pending, g)
			delete(got, g)
			out[g] = fold(buf)
		}
	})
	if len(failed) == 0 {
		return out, nil
	}
	msg := fmt.Sprintf("%d of %d cells failed:", len(failed), len(tasks))
	for i := range tasks {
		if f, ok := failed[i]; ok {
			msg += "\n  " + f
		}
	}
	return out, errors.New(msg)
}

// cell folds a one-rep group to its cell's result; a failed cell folds to
// the zero P.
func cell[P any](recs []campaign.RunRecord) P {
	p, _ := recs[0].Result.(P)
	return p
}

// okResults returns the results of a group's cells that succeeded, in rep
// order.
func okResults[P any](recs []campaign.RunRecord) []P {
	var out []P
	for _, rec := range recs {
		if p, ok := rec.Result.(P); ok {
			out = append(out, p)
		}
	}
	return out
}

// results runs a matrix of one-rep *Result cells; a failed cell stands in
// as emptyResult, so the tables print zeros for it.
func results(tasks []campaign.Task, opt campaign.ExecOptions) ([]*Result, error) {
	return grid(tasks, opt, 1, func(recs []campaign.RunRecord) *Result {
		if r := cell[*Result](recs); r != nil {
			return r
		}
		return emptyResult()
	})
}

// gridSource adapts a builder into a campaign.TaskSource: the builder
// receives the decoded spec's grid half as Options, plus the spec itself
// for its extras.
func gridSource(build func(campaign.Options, gridSpec) []campaign.Task) campaign.TaskSource {
	return func(spec []byte) ([]campaign.Task, error) {
		var g gridSpec
		if len(spec) > 0 {
			if err := json.Unmarshal(spec, &g); err != nil {
				return nil, fmt.Errorf("experiments: grid spec: %w", err)
			}
		}
		return build(campaign.Options{Grid: g.Grid}, g), nil
	}
}

func init() {
	for family, build := range map[string]func(campaign.Options) []campaign.Task{
		"fig6": fig6Tasks, "fig11": fig11Tasks, "fig12": fig12Tasks, "fig13": fig13Tasks,
		"fig14": fig14Tasks, "fct": fctTasks, "sweep": sweepTasks, "rttfair": rttfairTasks,
		"chaos": chaosTasks, "interop": interopTasks, "heavy": heavyTasks,
	} {
		campaign.RegisterSource(family, gridSource(func(o campaign.Options, _ gridSpec) []campaign.Task { return build(o) }))
	}
	campaign.RegisterSource("combos", gridSource(func(o campaign.Options, g gridSpec) []campaign.Task { return combosTasks(o, g.Combos) }))
	campaign.RegisterSource("dualq", gridSource(func(o campaign.Options, g gridSpec) []campaign.Task { return dualqTasks(o, g.NA, g.NB) }))
	campaign.RegisterSource("dualq-fq", gridSource(func(o campaign.Options, g gridSpec) []campaign.Task { return fqTasks(o, g.NA, g.NB) }))

	// Concrete result types that cross the coordinator/worker pipe inside
	// RunRecord.Result (an interface) — gob needs them registered on both
	// sides, and coordinator and worker share this binary and this init.
	campaign.RegisterWireType(&Result{})
	campaign.RegisterWireType(HeavyPoint{})
	campaign.RegisterWireType(SweepPoint{})
	campaign.RegisterWireType(ComboPoint{})
	campaign.RegisterWireType(ChaosPoint{})
	campaign.RegisterWireType(InteropPoint{})
	campaign.RegisterWireType(RTTFairPoint{})
	campaign.RegisterWireType(dualArm{})
	campaign.RegisterWireType(FQRow{})
	// The Quantiler implementation carried inside Result. A record from a
	// build that still collected into stats.Sample names an unregistered
	// type, so it fails to decode and its cell re-runs on resume.
	campaign.RegisterWireType(&stats.LogHistogram{})
}
