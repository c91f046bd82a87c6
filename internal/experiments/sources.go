package experiments

import (
	"encoding/json"
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

// execFor assembles executor options for one grid family. The (family,
// spec) identity is attached whenever anything needs it: a dispatcher
// (worker processes rebuild the matrix from it), a journal (records are
// keyed by it) or a resume set (completed cells are looked up by it).
// Plain in-process runs skip the spec marshalling entirely.
func execFor(o campaign.Options, family string, spec gridSpec) campaign.ExecOptions {
	seed := o.Seed
	if seed == 0 {
		seed = 1
	}
	e := campaign.ExecOptions{
		Jobs:         max(o.Jobs, 1),
		Shards:       o.Shards,
		FastForward:  o.FF,
		BaseSeed:     seed,
		Progress:     o.Progress,
		Collector:    o.Collector,
		Watchdog:     o.Watchdog,
		Retries:      o.Retries,
		RetryBackoff: o.RetryBackoff,
		Journal:      o.Journal,
		Resume:       o.Resume,
	}
	if o.Dispatch == nil && o.Journal == nil && o.Resume == nil {
		return e
	}
	spec.Grid = o.Grid
	b, err := json.Marshal(spec)
	if err != nil {
		panic(fmt.Sprintf("experiments: marshal %s grid spec: %v", family, err))
	}
	e.Family = family
	e.Spec = b
	e.Dispatch = o.Dispatch
	return e
}

// groupFold streams a campaign whose matrix is organized as consecutive
// rep groups (indices [g*reps, (g+1)*reps) belong to group g) and calls
// finalize once per group, with that group's records in rep order, as
// soon as the group completes. Folding per group in rep order — not in
// arrival order — keeps float aggregation byte-identical at any
// parallelism, while retaining at most O(workers) complete groups.
func groupFold(tasks []campaign.Task, opt campaign.ExecOptions, reps int, finalize func(group int, recs []campaign.RunRecord)) {
	pending := make(map[int][]campaign.RunRecord)
	got := make(map[int]int)
	campaign.ExecuteStream(tasks, opt, func(rec campaign.RunRecord) {
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
			finalize(g, buf)
		}
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
