package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"pi2/internal/campaign"
	"pi2/internal/fleet"
	"pi2/internal/golden"
)

// scale sizes the workloads. Every end-to-end number in BENCHMARK.json is
// taken at fullScale; layerScale shortens the heavy cells so the whole layer
// pass fits in one run; smokeScale is the bench's own self-test.
type scale struct {
	heavyDiv  int  // divides the heavy cells' 20 simulated seconds
	warmDiv   int  // same, for the warm-up cell inside set-up
	flows1k   int  // flow count of the "1k" cells
	flows5k   int  // flow count of the fast-forward cell
	sweepReps int  // seeds per sweep grid point in the fleet workload
	setUps    int  // how many times set-up is repeated for setup_s
	steady    bool // cells run long enough to assert utilisation and queue delay
	probeDiv  int  // divides the probes' iteration counts
}

var (
	fullScale  = scale{heavyDiv: 1, warmDiv: 20, flows1k: 1000, flows5k: 5000, sweepReps: 4, setUps: 5, steady: true, probeDiv: 1}
	layerScale = scale{heavyDiv: 4, warmDiv: 20, flows1k: 1000, flows5k: 5000, sweepReps: 2, setUps: 1, steady: true, probeDiv: 1}
	smokeScale = scale{heavyDiv: 20, warmDiv: 100, flows1k: 100, flows5k: 100, sweepReps: 1, setUps: 1, probeDiv: 20}
)

// heavySimSeconds is the production heavy cell's simulated length; a heavy
// workload's sim-seconds per wall-second is heavySimSeconds / wall_s.
const heavySimSeconds = 20

// goldenDir overrides where golden baselines are read from (default: the
// copy embedded in internal/golden). Pointing it at a wrong directory is the
// documented way to see a failed check exit non-zero.
var goldenDir string

type workload struct {
	name string
	why  string
	// setUp is everything before the first timed rep: matrix build,
	// baseline load and a reduced-scale warm-up of the workload's own
	// cells. setup_s is its median wall time over scale.setUps repeats.
	setUp func(sc scale, seed int64) (*prepared, error)
}

type prepared struct {
	// reference, when set, runs once — untimed — between set-up and the
	// timed reps and yields the digest every rep must reproduce. Without
	// it the first timed rep is the reference.
	reference func() (string, error)
	rep       func() repOut
}

type repOut struct {
	cells    int
	failed   int // cells with Err or TimedOut
	digest   string
	problems []string
}

var workloads = []workload{
	{
		name:  "golden_campaign",
		why:   "all 17 registered experiments at golden scale: ~109 short set-up-dominated cells, so campaign/experiments assembly and exact collectors outweigh the event loop",
		setUp: goldenSetUp,
	},
	heavyWorkload("heavy1k_pi2",
		"1000-flow PI2 heavy cell in packet mode: the steady-state hot path through sim + link.Link + core.PI2 + tcp; campaign, fleet and ff do nothing",
		"pi2", false),
	heavyWorkload("heavy1k_dualpi2",
		"the same 1000-flow cell through core.DualLink, the second transmit machine: a gain to link.Link that costs DualLink must show here",
		"dualpi2", false),
	heavyWorkload("heavy5k_pi2_ff",
		"5000-flow PI2 cell under fast-forward: ff + per-flow set-up + slow start dominate and the steady packet loop is bypassed; peak-memory workload",
		"pi2", true),
	{
		name:  "fleet_sweep_w1",
		why:   "golden-scale sweep grid x 4 seeds through a one-worker stdio fleet spawned per rep: spawn + handshake + envelope + gob record cost on real records",
		setUp: fleetSetUp,
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// buildMatrix rebuilds a family's task matrix from a serialized grid spec,
// exactly as a pi2bench fleet worker does.
func buildMatrix(family string, spec map[string]any) ([]campaign.Task, []byte, error) {
	src, ok := campaign.LookupSource(family)
	if !ok {
		return nil, nil, fmt.Errorf("no task source %q", family)
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		return nil, nil, err
	}
	tasks, err := src(raw)
	return tasks, raw, err
}

// heavyCell picks one cell of the production heavy matrix by its Params. The
// task keeps its matrix SeedIndex, so it runs with the seed pi2bench gives it.
func heavyCell(aqm string, flows, timeDiv int, ff bool) (campaign.Task, error) {
	spec := map[string]any{"ff": ff}
	if timeDiv > 1 {
		spec["timediv"] = timeDiv
	}
	tasks, _, err := buildMatrix("heavy", spec)
	if err != nil {
		return campaign.Task{}, err
	}
	for _, t := range tasks {
		if t.Params["aqm"] == aqm && t.Params["flows"] == flows {
			return t, nil
		}
	}
	return campaign.Task{}, fmt.Errorf("heavy matrix has no cell aqm=%s flows=%d", aqm, flows)
}

func heavyWorkload(name, why, aqm string, ff bool) workload {
	return workload{name: name, why: why, setUp: func(sc scale, seed int64) (*prepared, error) {
		flows := sc.flows1k
		if ff {
			flows = sc.flows5k
		}
		opt := campaign.ExecOptions{Jobs: 1, BaseSeed: seed, FastForward: ff}
		warm, err := heavyCell(aqm, flows, sc.warmDiv, ff)
		if err != nil {
			return nil, err
		}
		if rec := campaign.Execute([]campaign.Task{warm}, opt)[0]; rec.Err != "" {
			return nil, fmt.Errorf("warm-up cell: %s", rec.Err)
		}
		cell, err := heavyCell(aqm, flows, sc.heavyDiv, ff)
		if err != nil {
			return nil, err
		}
		return &prepared{rep: func() repOut {
			recs := campaign.Execute([]campaign.Task{cell}, opt)
			out := summarize(recs)
			if sc.steady {
				out.problems = append(out.problems, steadyProblems(recs[0], aqm)...)
			}
			return out
		}}, nil
	}}
}

// steadyProblems holds a heavy cell to the operating point the paper
// promises: a busy link and, for PI2, queue delay parked at the 20 ms target.
// (An auditor violation never gets this far: it panics the cell into Err.)
func steadyProblems(rec campaign.RunRecord, aqm string) []string {
	var out []string
	if u := rec.Metrics["util"]; u < 0.98 {
		out = append(out, fmt.Sprintf("%s: util %.4f < 0.98", aqm, u))
	}
	if q := rec.Metrics["q_mean_ms"]; aqm == "pi2" && math.Abs(q-20) > 0.15*20 {
		out = append(out, fmt.Sprintf("pi2: q_mean_ms %.2f outside 20 ms ± 15%%", q))
	}
	return out
}

// summarize reduces a rep's records to the counts and the digest the checks
// compare.
func summarize(recs []campaign.RunRecord) repOut {
	out := repOut{cells: len(recs), digest: digest(recs)}
	for _, r := range recs {
		if r.Err != "" || r.TimedOut {
			out.failed++
			out.problems = append(out.problems, fmt.Sprintf("%s[%d]: %s", r.Name, r.Index, r.Err))
		}
	}
	return out
}

// digest fingerprints what must repeat bit for bit across reps and across
// the fleet boundary: each cell's identity, event count and metric bits.
// Wall-clock fields are left out; float bits (not text) keep NaN comparable.
func digest(recs []campaign.RunRecord) string {
	sorted := append([]campaign.RunRecord(nil), recs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Index < sorted[j].Index })
	h := sha256.New()
	for _, r := range sorted {
		fmt.Fprintf(h, "%s|%d|%d|%d|%s", r.Name, r.Index, r.Seed, r.Events, r.Err)
		keys := make([]string, 0, len(r.Metrics))
		for k := range r.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(h, "|%s=%x", k, math.Float64bits(r.Metrics[k]))
		}
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// --- golden_campaign ---

// goldenWarmUp are the cheap simulation experiments set-up replays so the
// first timed rep does not pay first-use costs (web and dual-queue paths
// included).
var goldenWarmUp = []string{"fig11", "dualq", "fct"}

// goldenPrepare loads every baseline and replays the warm-up experiments.
func goldenPrepare() (map[string]*golden.Fingerprint, error) {
	want := map[string]*golden.Fingerprint{}
	for _, name := range campaign.AllNames() {
		fp, err := golden.Baseline(name, goldenDir)
		if err != nil {
			return nil, err
		}
		want[name] = fp
	}
	for _, name := range goldenWarmUp {
		if _, err := golden.Capture(name, golden.Exec{Jobs: 1}); err != nil {
			return nil, err
		}
	}
	return want, nil
}

func goldenSetUp(scale, int64) (*prepared, error) {
	// The golden seed is part of the golden format, so -seed does not
	// apply here: every run of this workload sees identical inputs.
	want, err := goldenPrepare()
	if err != nil {
		return nil, err
	}
	return &prepared{rep: func() repOut { return goldenRep(want, nil) }}, nil
}

// goldenRep is pi2bench -check for every experiment in "all": capture at
// golden scale, compare against the baseline. spans, when non-nil, receives
// each experiment's wall time.
func goldenRep(want map[string]*golden.Fingerprint, spans map[string]time.Duration) repOut {
	var out repOut
	h := sha256.New()
	for _, name := range campaign.AllNames() {
		t0 := time.Now()
		got, err := golden.Capture(name, golden.Exec{Jobs: 1})
		if spans != nil {
			spans[name] = time.Since(t0)
		}
		if err != nil {
			out.cells++
			out.failed++
			out.problems = append(out.problems, err.Error())
			continue
		}
		// Analytic experiments run no cells; count each as one.
		out.cells += max(1, len(got.Runs))
		for _, m := range golden.Compare(want[name], got) {
			out.problems = append(out.problems, "golden "+name+": "+m.String())
		}
		raw, _ := json.Marshal(got) // a Fingerprint holds only finite floats and strings
		h.Write(raw)
	}
	out.digest = hex.EncodeToString(h.Sum(nil))
	return out
}

// --- fleet_sweep_w1 ---

// workerCommand is the argv that turns this binary into a fleet worker.
func workerCommand() ([]string, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	return []string{exe, "-worker"}, nil
}

func sweepSpec(timeDiv, reps int) map[string]any {
	return map[string]any{"quick": true, "timediv": timeDiv, "reps": reps}
}

// fleetExecute runs a matrix through a freshly spawned one-worker stdio
// pool and reaps the worker before returning, so its CPU time lands in this
// process's RUSAGE_CHILDREN inside the timed region.
func fleetExecute(argv []string, tasks []campaign.Task, spec []byte, seed int64) []campaign.RunRecord {
	pool := fleet.NewPool(fleet.Config{Workers: 1, Command: argv})
	defer pool.Close()
	return campaign.Execute(tasks, campaign.ExecOptions{
		Jobs: 1, BaseSeed: seed, Family: "sweep", Spec: spec, Dispatch: pool,
	})
}

func fleetSetUp(sc scale, seed int64) (*prepared, error) {
	argv, err := workerCommand()
	if err != nil {
		return nil, err
	}
	// Warm-up: the same grid at a tenth of golden length through a real
	// worker, so set-up pays one spawn + handshake + init like a rep does.
	wtasks, wspec, err := buildMatrix("sweep", sweepSpec(10*golden.TimeDiv, 1))
	if err != nil {
		return nil, err
	}
	if s := summarize(fleetExecute(argv, wtasks, wspec, seed)); s.failed > 0 {
		return nil, fmt.Errorf("warm-up sweep: %v", s.problems)
	}
	tasks, spec, err := buildMatrix("sweep", sweepSpec(golden.TimeDiv, sc.sweepReps))
	if err != nil {
		return nil, err
	}
	return &prepared{
		// The in-process twin: same matrix, same seed, no fleet.
		reference: func() (string, error) {
			s := summarize(campaign.Execute(tasks, campaign.ExecOptions{Jobs: 1, BaseSeed: seed}))
			if s.failed > 0 {
				return "", fmt.Errorf("in-process twin: %v", s.problems)
			}
			return s.digest, nil
		},
		rep: func() repOut { return summarize(fleetExecute(argv, tasks, spec, seed)) },
	}, nil
}
