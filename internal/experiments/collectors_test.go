package experiments

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"

	"pi2/internal/campaign"
	"pi2/internal/stats"
)

// delayBinWidth is stats.NewDelayHistogram's relative bin width: a
// percentile read from it lies in the bin of the order statistic it
// stands for, so within this factor of it.
const delayBinWidth = 0.02

// teeQuantiler feeds every observation to an exact stats.Sample and to the
// delay histogram the simulations use. It answers every read from the
// histogram, so a run on tees prints what a plain run prints, and it logs
// every percentile asked of it so a test can hold exactly those reads to
// the exact order statistics.
type teeQuantiler struct {
	exact stats.Sample
	hist  *stats.LogHistogram
	asked []float64
}

func newTee() *teeQuantiler { return &teeQuantiler{hist: stats.NewDelayHistogram()} }

func (q *teeQuantiler) Add(x float64) {
	q.exact.Add(x)
	q.hist.Add(x)
}

func (q *teeQuantiler) AddN(x float64, n int64) {
	q.exact.AddN(x, n)
	q.hist.AddN(x, n)
}

func (q *teeQuantiler) N() int          { return q.hist.N() }
func (q *teeQuantiler) Mean() float64   { return q.hist.Mean() }
func (q *teeQuantiler) Stddev() float64 { return q.hist.Stddev() }
func (q *teeQuantiler) Min() float64    { return q.hist.Min() }
func (q *teeQuantiler) Max() float64    { return q.hist.Max() }

func (q *teeQuantiler) Percentile(p float64) float64 {
	q.asked = append(q.asked, p)
	return q.hist.Percentile(p)
}

func (q *teeQuantiler) Percentiles(ps ...float64) []float64 {
	q.asked = append(q.asked, ps...)
	return q.hist.Percentiles(ps...)
}

func (q *teeQuantiler) Reset() {
	q.exact.Reset()
	q.hist.Reset()
}

// experimentRun is one registered experiment's printed output and its
// records sorted by cell, plus the tees its collectors were when teed.
type experimentRun struct {
	out  string
	recs []campaign.RunRecord
	tees []*teeQuantiler
}

// runExperiment runs the named experiment on grid, with every collector the
// experiments build swapped for a tee when tee is set.
func runExperiment(t *testing.T, name string, grid campaign.Grid, tee bool) experimentRun {
	t.Helper()
	exp, ok := campaign.Lookup(name)
	if !ok {
		t.Fatalf("experiment %q is not registered", name)
	}
	var run experimentRun
	if tee {
		var mu sync.Mutex
		defer func(orig func() stats.Quantiler) { newQuantiler = orig }(newQuantiler)
		newQuantiler = func() stats.Quantiler {
			q := newTee()
			mu.Lock()
			run.tees = append(run.tees, q)
			mu.Unlock()
			return q
		}
	}
	col := &campaign.Collector{}
	o := &campaign.Options{Grid: grid, ExecOptions: campaign.ExecOptions{BaseSeed: 1, Jobs: 2, Collector: col}}
	var out bytes.Buffer
	if err := exp.Run(o, &out); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	run.out = out.String()
	run.recs = col.Records()
	sort.Slice(run.recs, func(i, j int) bool {
		if run.recs[i].Name != run.recs[j].Name {
			return run.recs[i].Name < run.recs[j].Name
		}
		return run.recs[i].Index < run.recs[j].Index
	})
	return run
}

// collectorCheck is what the collector tests found on one grid: every
// difference between the plain and the teed runs, every percentile read
// outside its error envelope, and how many reads were checked.
type collectorCheck struct {
	moved, outside []string
	reads          int
}

var (
	collectorChecksMu sync.Mutex
	collectorChecks   = map[campaign.Grid]*collectorCheck{}
)

// checkCollectors runs every registered experiment on grid twice, plain and
// teed, once per test binary, and checks both runs as it goes: the
// no-perturbation and error-envelope tests read the same runs, and no
// experiment's exact samples outlive its own check.
func checkCollectors(t *testing.T, grid campaign.Grid) *collectorCheck {
	t.Helper()
	collectorChecksMu.Lock()
	defer collectorChecksMu.Unlock()
	if c, ok := collectorChecks[grid]; ok {
		return c
	}
	c := &collectorCheck{}
	for _, name := range campaign.Names() {
		plain := runExperiment(t, name, grid, false)
		teed := runExperiment(t, name, grid, true)
		c.moved = append(c.moved, perturbations(name, plain, teed)...)
		for i, q := range teed.tees {
			c.outside = append(c.outside, q.envelope(fmt.Sprintf("%s collector %d", name, i), &c.reads)...)
		}
	}
	collectorChecks[grid] = c
	return c
}

// collectorGrids are the grids both collector tests cover: the golden
// capture scale always, and the plain -quick scale unless -short or under
// the race detector (raceEnabled).
func collectorGrids() map[string]campaign.Grid {
	grids := map[string]campaign.Grid{"golden": {Quick: true, TimeDiv: 20}}
	if !testing.Short() && !raceEnabled {
		grids["quick"] = campaign.Grid{Quick: true}
	}
	return grids
}

// sameBits reports whether two metric maps hold the same keys and
// bit-identical values.
func sameBits(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, x := range a {
		y, ok := b[k]
		if !ok || math.Float64bits(x) != math.Float64bits(y) {
			return false
		}
	}
	return true
}

// perturbations lists every way the teed run of experiment name differs
// from its plain run: printed tables, records, and in every cell its
// events, metrics, and for scenario results its drops, marks and per-flow
// rates.
func perturbations(name string, plain, teed experimentRun) []string {
	var moved []string
	if plain.out != teed.out {
		moved = append(moved, fmt.Sprintf("%s: teed run printed\n%s\nplain run printed\n%s", name, teed.out, plain.out))
	}
	if len(plain.recs) != len(teed.recs) {
		return append(moved, fmt.Sprintf("%s: %d records plain, %d teed", name, len(plain.recs), len(teed.recs)))
	}
	for i, p := range plain.recs {
		q := teed.recs[i]
		cell := fmt.Sprintf("%s %s[%d]", name, p.Name, p.Index)
		if p.Err != "" || q.Err != "" {
			moved = append(moved, fmt.Sprintf("%s failed: plain %q, teed %q", cell, p.Err, q.Err))
			continue
		}
		if p.Events != q.Events || !sameBits(p.Metrics, q.Metrics) {
			moved = append(moved, fmt.Sprintf("%s: events %d, metrics %v plain; events %d, metrics %v teed",
				cell, p.Events, p.Metrics, q.Events, q.Metrics))
		}
		pr, ok1 := p.Result.(*Result)
		qr, ok2 := q.Result.(*Result)
		if ok1 != ok2 {
			moved = append(moved, fmt.Sprintf("%s: results %T plain, %T teed", cell, p.Result, q.Result))
			continue
		}
		if ok1 && (pr.Events != qr.Events || pr.DropsAQM != qr.DropsAQM ||
			pr.DropsOverflow != qr.DropsOverflow || pr.Marks != qr.Marks ||
			!reflect.DeepEqual(pr.Groups, qr.Groups)) {
			moved = append(moved, fmt.Sprintf("%s: simulation moved: events %d/%d, drops %d+%d/%d+%d, marks %d/%d, groups %+v / %+v",
				cell, pr.Events, qr.Events, pr.DropsAQM, pr.DropsOverflow, qr.DropsAQM, qr.DropsOverflow,
				pr.Marks, qr.Marks, pr.Groups, qr.Groups))
		}
	}
	return moved
}

// envelope checks every percentile asked of q against the exact order
// statistics, counting the reads, and lists those outside the envelope (see
// TestPercentileErrorEnvelope) along with any count or mean that differs.
func (q *teeQuantiler) envelope(where string, reads *int) []string {
	n := q.exact.N()
	if q.hist.N() != n {
		return []string{fmt.Sprintf("%s: histogram holds %d observations, exact %d", where, q.hist.N(), n)}
	}
	var outside []string
	if e, h := q.exact.Mean(), q.hist.Mean(); math.Abs(h-e) > 1e-9*math.Abs(e) {
		outside = append(outside, fmt.Sprintf("%s: mean %g, exact %g", where, h, e))
	}
	if n == 0 || len(q.asked) == 0 {
		return outside
	}
	xs := q.exact.Values()
	sort.Float64s(xs)
	for _, p := range q.asked {
		*reads++
		got := q.hist.Percentile(p)
		lo, hi := bracket(p, n)
		min := xs[lo]/(1+delayBinWidth) - 1e-6
		max := xs[hi]*(1+delayBinWidth) + 1e-6
		if !(got >= min && got <= max) {
			outside = append(outside, fmt.Sprintf("%s: p%g = %.6g outside [%.6g, %.6g] (order statistics %d..%d of %d read %.6g..%.6g, exact p%g %.6g)",
				where, p, got, min, max, lo, hi, n, xs[lo], xs[hi], p, q.exact.Percentile(p)))
		}
	}
	return outside
}

// TestCollectorsDoNotPerturbSimulation runs every registered experiment's
// -quick grid twice: plain, and with every collector an exact-plus-histogram
// tee. Collectors are pure observers, so every cell's events, drops, marks
// and per-flow rates must be bit-identical between the two runs, and so
// must the printed tables and every metric.
func TestCollectorsDoNotPerturbSimulation(t *testing.T) {
	for scale, grid := range collectorGrids() {
		for _, m := range checkCollectors(t, grid).moved {
			t.Errorf("%s grid: %s", scale, m)
		}
	}
}

// TestPercentileErrorEnvelope holds every percentile the printers and
// metrics read from a teed collector to the exact order statistics. The
// histogram files the observation of rank ⌈q·n/100⌉ and the exact
// collector interpolates ranks ⌊q·(n-1)/100⌋ and ⌈q·(n-1)/100⌉, so the
// read must lie between the lowest and highest of those order statistics,
// widened by one bin width (plus the histogram's 1 µs underflow floor).
// Counts and means are exact in both collectors.
func TestPercentileErrorEnvelope(t *testing.T) {
	for scale, grid := range collectorGrids() {
		c := checkCollectors(t, grid)
		for _, m := range c.outside {
			t.Errorf("%s grid: %s", scale, m)
		}
		if c.reads == 0 {
			t.Errorf("%s grid: no experiment read a percentile from its collectors", scale)
		}
	}
}

// bracket returns the 0-based ranks of the lowest and highest order
// statistic a q-th percentile of n observations can read: the histogram's
// rank and the exact collector's two interpolation ranks.
func bracket(q float64, n int) (lo, hi int) {
	if q <= 0 {
		return 0, 0
	}
	if q >= 100 {
		return n - 1, n - 1
	}
	hist := int(math.Ceil(q/100*float64(n))) - 1
	pos := q / 100 * float64(n-1)
	lo = min(max(hist, 0), int(math.Floor(pos)))
	hi = min(max(hist, int(math.Ceil(pos))), n-1)
	return lo, hi
}
