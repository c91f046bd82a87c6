// Package golden is the repository's result-regression harness. It runs
// every registered experiment at a reduced but fully deterministic scale,
// reduces each campaign cell to its scalar metric fingerprint
// (campaign.RunRecord.Metrics), and compares the capture against checked-in
// golden JSON under testdata/golden/ with per-metric tolerance bands.
//
// The goldens pin the paper-facing numbers: a refactor that accidentally
// changes PI2's control law, the coupling, or the traffic model shifts queue
// delay, drop/mark totals or goodput shares far outside the bands and the
// failure names the experiment, cell and metric that moved. Runs are
// bit-identical per (seed, time scale), so the bands exist only to absorb
// cross-platform floating-point wobble — they are deliberately far tighter
// than any real behavioural change.
//
// Three consumers share this package: `go test ./internal/golden` (tier-1),
// `pi2bench -check` / `-update-golden`, and the CI golden-check job.
package golden

import (
	"bytes"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"pi2/internal/campaign"

	// Register every experiment with the campaign registry.
	_ "pi2/internal/experiments"
)

// Capture scale: every fingerprint — checked in or recaptured — uses the
// Quick grids with durations divided by TimeDiv and base seed Seed. The
// constants are part of the golden format; changing either invalidates
// every checked-in file.
const (
	// TimeDiv divides experiment durations (instead of Quick's fixed 5x):
	// deep enough that the whole registry replays in seconds, shallow
	// enough that flows leave slow-start and the AQMs reach steady state.
	TimeDiv = 20
	// Seed is the campaign base seed for every capture.
	Seed int64 = 1
)

// DefaultDir is where -update-golden writes, relative to the repository
// root. Reads prefer the embedded copy so pi2bench -check works from any
// working directory.
const DefaultDir = "internal/golden/testdata/golden"

//go:embed all:testdata/golden
var embedded embed.FS

// Run is one campaign cell's fingerprint: its identity and scalar metrics.
type Run struct {
	Name    string             `json:"name"`
	Index   int                `json:"index"`
	Seed    int64              `json:"seed"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Fingerprint is one experiment's golden record.
type Fingerprint struct {
	Experiment string `json:"experiment"`
	TimeDiv    int    `json:"time_div"`
	Seed       int64  `json:"seed"`
	// OutputSHA256 hashes the printed output for analytic experiments
	// that run no simulator cells (table1, fig4, fig5, fig7). Simulation
	// experiments are fingerprinted by Runs instead, so harmless
	// formatting changes don't invalidate them.
	OutputSHA256 string `json:"output_sha256,omitempty"`
	Runs         []Run  `json:"runs,omitempty"`
}

// Exec carries the execution-side knobs a capture routes through (Jobs,
// Dispatch, Journal, Resume, ...). The zero value is a plain serial
// in-process run. Capture fixes the two knobs a record depends on
// (BaseSeed to Seed, Shards to one loop) and sets its own Collector, so the
// rest change no fingerprint: internal/fleet's TestExecKnobContract holds
// every one of them to that.
type Exec = campaign.ExecOptions

// Capture runs the named experiment at golden scale and reduces it to a
// fingerprint. The Exec knobs affect only wall-clock time and fault
// tolerance, never the result (seeds derive from (Seed, cell index);
// records are sorted by identity). A cell that fails — including an
// invariant-auditor violation, which the runner raises as a panic carrying
// the full report — turns into an error naming the cell.
func Capture(name string, ex Exec) (*Fingerprint, error) {
	exp, ok := campaign.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("golden: unknown experiment %q", name)
	}
	col := &campaign.Collector{}
	o := &campaign.Options{Grid: campaign.Grid{Quick: true, TimeDiv: TimeDiv}, ExecOptions: ex}
	o.BaseSeed, o.Shards, o.Collector = Seed, 0, col
	var buf bytes.Buffer
	if err := exp.Run(o, &buf); err != nil {
		return nil, fmt.Errorf("golden: %s: %w", name, err)
	}

	recs := col.Records()
	// The collector sees records in completion order, which depends on
	// scheduling; (Name, Index) identifies a cell uniquely, so sorting by
	// it makes the fingerprint independent of worker count.
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].Name != recs[j].Name {
			return recs[i].Name < recs[j].Name
		}
		return recs[i].Index < recs[j].Index
	})

	fp := &Fingerprint{Experiment: name, TimeDiv: TimeDiv, Seed: Seed}
	for _, rec := range recs {
		if rec.Err != "" {
			return nil, fmt.Errorf("golden: %s: cell %s[%d] failed:\n%s",
				name, rec.Name, rec.Index, rec.Err)
		}
		fp.Runs = append(fp.Runs, Run{
			Name:    rec.Name,
			Index:   rec.Index,
			Seed:    rec.Seed,
			Metrics: finiteOnly(rec.Metrics),
		})
	}
	if len(fp.Runs) == 0 {
		sum := sha256.Sum256(buf.Bytes())
		fp.OutputSHA256 = hex.EncodeToString(sum[:])
	}
	return fp, nil
}

// finiteOnly copies m without NaN/Inf entries — encoding/json rejects them,
// and a non-finite metric (e.g. a ratio whose denominator starved at golden
// scale) carries no regression signal anyway. The reduction is
// deterministic, so the same keys drop on every capture.
func finiteOnly(m map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, v := range m {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			out[k] = v
		}
	}
	return out
}

// Tolerance is a per-metric acceptance band: a comparison passes when
// |got-want| <= Abs + Rel*|want|.
type Tolerance struct {
	Abs float64 `json:"abs"`
	Rel float64 `json:"rel"`
}

// ToleranceFor maps a metric name to its band. Counts get a few units of
// slack; probabilities, shares and utilizations get small absolute bands
// (their magnitudes are bounded); everything else gets 2% relative plus a
// vanishing absolute term for near-zero values.
func ToleranceFor(metric string) Tolerance {
	switch {
	case metric == "events" || metric == "fct_n" ||
		strings.HasSuffix(metric, "_retx"):
		return Tolerance{Abs: 4, Rel: 0.02}
	case strings.HasPrefix(metric, "drops_") || metric == "marks":
		return Tolerance{Abs: 2, Rel: 0.05}
	case strings.HasPrefix(metric, "prob_"):
		return Tolerance{Abs: 2e-4, Rel: 0.02}
	case metric == "utilization" || metric == "util" || metric == "util_mean":
		return Tolerance{Abs: 0.01}
	case metric == "jain" || strings.HasSuffix(metric, "_share") ||
		strings.HasSuffix(metric, "_loss_ratio"):
		return Tolerance{Abs: 0.02}
	case strings.HasSuffix(metric, "_ms"):
		return Tolerance{Abs: 0.05, Rel: 0.02}
	default:
		return Tolerance{Abs: 1e-9, Rel: 0.02}
	}
}

// Within reports whether got is inside the band around want.
func (t Tolerance) Within(want, got float64) bool {
	return math.Abs(got-want) <= t.Abs+t.Rel*math.Abs(want)
}

// Mismatch is one comparison failure, locating the exact run and metric
// that moved.
type Mismatch struct {
	Run    string  `json:"run"`
	Metric string  `json:"metric"`
	Want   float64 `json:"want"`
	Got    float64 `json:"got"`
	// Detail describes structural mismatches (missing run, missing
	// metric, hash change) where Want/Got don't apply.
	Detail string `json:"detail,omitempty"`
}

func (m Mismatch) String() string {
	if m.Detail != "" {
		return fmt.Sprintf("%s: %s: %s", m.Run, m.Metric, m.Detail)
	}
	tol := ToleranceFor(m.Metric)
	return fmt.Sprintf("%s: %s = %.6g, want %.6g ± (%g + %g·|want|)",
		m.Run, m.Metric, m.Got, m.Want, tol.Abs, tol.Rel)
}

// Compare checks a fresh capture against the golden baseline and returns
// every metric outside its tolerance band (nil when the capture passes).
func Compare(want, got *Fingerprint) []Mismatch {
	var out []Mismatch
	bad := func(run, metric string, w, g float64, detail string) {
		out = append(out, Mismatch{Run: run, Metric: metric, Want: w, Got: g, Detail: detail})
	}
	id := want.Experiment
	if want.TimeDiv != got.TimeDiv || want.Seed != got.Seed {
		bad(id, "scale", 0, 0, fmt.Sprintf(
			"golden captured at timediv=%d seed=%d, got timediv=%d seed=%d",
			want.TimeDiv, want.Seed, got.TimeDiv, got.Seed))
		return out
	}
	if want.OutputSHA256 != "" || got.OutputSHA256 != "" {
		if want.OutputSHA256 != got.OutputSHA256 {
			bad(id, "output_sha256", 0, 0, fmt.Sprintf(
				"printed output changed: want %.12s…, got %.12s…",
				want.OutputSHA256, got.OutputSHA256))
		}
	}
	gotByID := make(map[string]Run, len(got.Runs))
	for _, r := range got.Runs {
		gotByID[runID(r)] = r
	}
	wantIDs := make(map[string]bool, len(want.Runs))
	for _, w := range want.Runs {
		wid := runID(w)
		wantIDs[wid] = true
		g, ok := gotByID[wid]
		if !ok {
			bad(wid, "run", 0, 0, "cell missing from capture")
			continue
		}
		if g.Seed != w.Seed {
			bad(wid, "seed", float64(w.Seed), float64(g.Seed),
				"seed derivation changed")
		}
		keys := make([]string, 0, len(w.Metrics))
		for k := range w.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			gv, ok := g.Metrics[k]
			if !ok {
				bad(wid, k, w.Metrics[k], 0, "metric missing from capture")
				continue
			}
			if !ToleranceFor(k).Within(w.Metrics[k], gv) {
				bad(wid, k, w.Metrics[k], gv, "")
			}
		}
		for k := range g.Metrics {
			if _, ok := w.Metrics[k]; !ok {
				bad(wid, k, 0, g.Metrics[k],
					"metric not in golden (regenerate with -update-golden)")
			}
		}
	}
	for _, g := range got.Runs {
		if !wantIDs[runID(g)] {
			bad(runID(g), "run", 0, 0,
				"cell not in golden (regenerate with -update-golden)")
		}
	}
	return out
}

func runID(r Run) string { return fmt.Sprintf("%s[%d]", r.Name, r.Index) }

// Baseline loads the checked-in fingerprint for an experiment. With dir ==
// "" it reads the copy embedded at build time; otherwise it reads
// dir/<name>.json from disk (for freshly regenerated goldens).
func Baseline(name, dir string) (*Fingerprint, error) {
	var (
		raw []byte
		err error
	)
	if dir == "" {
		raw, err = embedded.ReadFile("testdata/golden/" + name + ".json")
	} else {
		raw, err = os.ReadFile(filepath.Join(dir, name+".json"))
	}
	if err != nil {
		return nil, fmt.Errorf("golden: no baseline for %q (run pi2bench -update-golden): %w", name, err)
	}
	fp := &Fingerprint{}
	if err := json.Unmarshal(raw, fp); err != nil {
		return nil, fmt.Errorf("golden: corrupt baseline for %q: %w", name, err)
	}
	return fp, nil
}

// Save writes a fingerprint to dir/<name>.json, creating dir if needed.
func Save(dir string, fp *Fingerprint) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(fp, "", "  ")
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	return os.WriteFile(filepath.Join(dir, fp.Experiment+".json"), raw, 0o644)
}

// Check captures one experiment at golden scale and compares it against its
// baseline. It returns the mismatches (empty slice on success) — a non-nil
// error means the capture or baseline load itself failed.
func Check(name string, dir string, ex Exec) ([]Mismatch, error) {
	want, err := Baseline(name, dir)
	if err != nil {
		return nil, err
	}
	got, err := Capture(name, ex)
	if err != nil {
		return nil, err
	}
	return Compare(want, got), nil
}
