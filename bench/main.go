// Command bench is the repository's benchmark: five named workloads, six
// bounded end-to-end metrics plus the failure counts, and a per-layer ledger
// measured from outside through each package's public functions. The root
// BENCHMARK.json names the command, workloads, metrics, units and regression
// bounds; README.md in this directory says why each exists and how the layer
// metrics map onto the end-to-end ones.
//
// One workload, as the BENCHMARK.json contract runs it:
//
//	go run -C bench . --workload heavy1k_pi2 --seed 1 --seconds 15 --trace 0
//
// prints one JSON object as the last line of stdout. --trace 1 prints the
// per-layer metrics instead (the layer pass; end-to-end numbers are always
// taken with it off).
//
// Everything, for a person:
//
//	go run -C bench . [-layers] [-selfcheck] [-smoke]
//
// runs each workload in a fresh child process (so heap state and ru_maxrss
// are per workload), interleaves their timed reps round-robin, prints every
// metric by name with its unit, and exits non-zero on any failed check. The
// binary doubles as its own fleet worker (-worker, -serve).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"time"

	_ "pi2/internal/experiments" // registers every experiment and task source
	"pi2/internal/fleet"
)

func main() {
	name := flag.String("workload", "", "run this one workload and print its result object (default: run them all)")
	seed := flag.Int64("seed", 1, "campaign base seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 15, "timed reps run until this much wall time has passed")
	trace := flag.Int("trace", 0, "1 = run the layer pass and print the per-layer metrics instead")
	layers := flag.Bool("layers", false, "all-workload mode: also run the layer pass, after the timed reps")
	selfcheck := flag.Bool("selfcheck", false, "all-workload mode: run everything twice and fail unless the two sets agree within the BENCHMARK.json bounds")
	smoke := flag.Bool("smoke", false, "tiny scale, one rep: a self-test of the bench, not a measurement")
	paced := flag.Bool("paced", false, "single-workload mode: run one timed rep per line on stdin (the all-workload driver's interleave)")
	worker := flag.Bool("worker", false, "serve the fleet worker protocol on stdin/stdout")
	serve := flag.String("serve", "", "run a fleet TCP worker host on this address")
	flag.StringVar(&goldenDir, "golden-dir", "", "read golden baselines from this directory instead of the embedded copy")
	flag.Parse()
	sc := fullScale
	if *smoke {
		sc, *seconds = smokeScale, 0 // one rep
	}

	switch {
	case *worker:
		if err := fleet.Serve(os.Stdin, os.Stdout); err != nil {
			fatal(err)
		}
	case *serve != "":
		fatal(fleet.ServeTCP(*serve, os.Stdout, os.Stderr))
	case *name != "":
		w, ok := lookupWorkload(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		var res result
		var problems []string
		if *trace == 1 {
			if !*smoke {
				sc = layerScale
			}
			res, problems = layerPass(sc, *seed)
		} else {
			var tokens *bufio.Scanner
			if *paced {
				tokens = bufio.NewScanner(os.Stdin)
			}
			res, problems = runWorkload(w, sc, *seed, *seconds, tokens)
		}
		for _, p := range problems {
			fmt.Fprintf(os.Stderr, "bench: %s: check failed: %s\n", w.name, p)
		}
		emit(res)
		if !res.Correct {
			os.Exit(1)
		}
	default:
		os.Exit(runAll(*seed, *seconds, *layers, *selfcheck, *smoke))
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	os.Exit(1)
}

func emit(res result) {
	raw, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", raw)
}

// runWorkload is one workload's whole life in this process: set-up
// (repeated, for a steady setup_s), the untimed reference if the workload has
// one, then closed-loop timed reps — one at a time, each charged its own
// wall, CPU and allocations — until `seconds` have passed, or, when paced,
// for as long as the driver keeps sending lines.
func runWorkload(w workload, sc scale, seed int64, seconds float64, tokens *bufio.Scanner) (result, []string) {
	var problems []string
	var setUps []float64
	var p *prepared
	for i := 0; i < sc.setUps; i++ {
		runtime.GC()
		t0 := time.Now()
		var err error
		if p, err = w.setUp(sc, seed); err != nil {
			return result{Attempted: 1, Failed: 1}, []string{"set-up: " + err.Error()}
		}
		setUps = append(setUps, time.Since(t0).Seconds())
	}
	var want string
	if p.reference != nil {
		var err error
		if want, err = p.reference(); err != nil {
			return result{Attempted: 1, Failed: 1}, []string{"reference: " + err.Error()}
		}
	}
	if tokens != nil {
		fmt.Println("ready")
	}

	var walls, cpus, allocs, allocMB []float64
	var cells, failed int
	start := time.Now()
	for {
		if tokens != nil && !tokens.Scan() {
			break
		}
		runtime.GC() // every rep starts from the same heap state
		a := snapshot()
		out := p.rep()
		b := snapshot()
		walls = append(walls, b.at.Sub(a.at).Seconds())
		cpus = append(cpus, (b.cpu - a.cpu).Seconds())
		allocs = append(allocs, float64(b.mallocs-a.mallocs))
		allocMB = append(allocMB, float64(b.bytes-a.bytes)/1e6)
		cells += out.cells
		failed += out.failed
		problems = append(problems, out.problems...)
		if want == "" {
			want = out.digest
		} else if out.digest != want {
			problems = append(problems, fmt.Sprintf("rep %d: records differ from the reference (digest %.12s, want %.12s)",
				len(walls), out.digest, want))
		}
		if tokens != nil {
			fmt.Printf("rep %.6f\n", walls[len(walls)-1])
		} else if time.Since(start).Seconds() >= seconds {
			break
		}
	}
	if len(walls) == 0 {
		return result{Attempted: 1, Failed: 1}, []string{"no timed rep ran"}
	}
	lo, hi := minMax(walls)
	fmt.Fprintf(os.Stderr, "bench: %s: wall_s median %.4f over n=%d reps (min %.4f, max %.4f), %d cells/rep\n",
		w.name, median(walls), len(walls), lo, hi, cells/len(walls))
	metrics := map[string]metric{
		"wall_s":      {median(walls), "s"},
		"cpu_s":       {median(cpus), "s"},
		"allocs":      {median(allocs), "count"},
		"alloc_mb":    {median(allocMB), "MB"},
		"peak_rss_mb": {peakRSSMB(), "MB"},
		"setup_s":     {median(setUps), "s"},
	}
	if tokens != nil {
		// All-workload mode prints the two must-stay-zero numbers by name.
		// The BENCHMARK.json contract carries them as failed/attempted and
		// correct instead, since a bounded metric may never be 0.
		metrics["fail_ratio"] = metric{float64(failed) / float64(max(cells, 1)), "ratio"}
		metrics["check_failures"] = metric{float64(len(problems)), "count"}
	}
	return result{Correct: len(problems) == 0, Attempted: cells, Failed: failed, Metrics: metrics}, problems
}

// --- all-workload mode ---

// child is one workload running in its own process, paced from here.
type child struct {
	name  string
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *bufio.Scanner
	spent float64 // wall seconds of timed reps so far
}

// startChild re-executes this binary with args; name labels it.
func startChild(name string, args ...string) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return &child{name: name, cmd: cmd, stdin: stdin, out: bufio.NewScanner(stdout)}, nil
}

// finish closes the child's stdin, which ends its rep loop, and returns the
// result object it prints last.
func (c *child) finish() (result, error) {
	c.stdin.Close()
	var last string
	for c.out.Scan() {
		last = c.out.Text()
	}
	waitErr := c.cmd.Wait()
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, fmt.Errorf("%s: no result object (%v; exit: %v)", c.name, err, waitErr)
	}
	return res, nil
}

// rep has the child run one timed rep and returns its wall seconds.
func (c *child) rep() (float64, error) {
	fmt.Fprintln(c.stdin)
	if !c.out.Scan() {
		return 0, fmt.Errorf("%s: exited before its next rep", c.name)
	}
	var wall float64
	_, err := fmt.Sscanf(c.out.Text(), "rep %f", &wall)
	return wall, err
}

// timedSet runs every workload once: children are set up one after another
// (concurrent set-ups would time each other), then their timed reps are
// interleaved round-robin — so slow drift of the machine lands on all of
// them — until each has spent `seconds` in timed reps.
func timedSet(seed int64, seconds float64, smoke bool) (map[string]result, error) {
	args := []string{"-paced", "-seed", fmt.Sprint(seed), "-golden-dir", goldenDir}
	if smoke {
		args = append(args, "-smoke")
	}
	out := map[string]result{}
	var running []*child
	abort := func(err error) (map[string]result, error) {
		for _, c := range running {
			c.cmd.Process.Kill()
			c.cmd.Wait()
		}
		return out, err
	}
	for _, w := range workloads {
		c, err := startChild(w.name, append([]string{"-workload", w.name}, args...)...)
		if err != nil {
			return abort(err)
		}
		if !c.out.Scan() || c.out.Text() != "ready" {
			// Set-up failed; the child is printing its result and exiting.
			out[w.name], _ = c.finish()
			return abort(fmt.Errorf("%s: set-up failed", w.name))
		}
		running = append(running, c)
	}
	for len(running) > 0 {
		c := running[0]
		running = running[1:]
		wall, err := c.rep()
		if err != nil {
			running = append(running, c)
			return abort(err)
		}
		if c.spent += wall; c.spent < seconds {
			running = append(running, c) // back of the queue
			continue
		}
		if out[c.name], err = c.finish(); err != nil {
			return abort(err)
		}
	}
	return out, nil
}

// layerSet runs the layer pass in a fresh process and returns its metrics.
func layerSet(seed int64, smoke bool) (result, error) {
	args := []string{"-workload", workloads[0].name, "-trace", "1", "-seed", fmt.Sprint(seed)}
	if smoke {
		args = append(args, "-smoke")
	}
	c, err := startChild("layers", args...)
	if err != nil {
		return result{}, err
	}
	return c.finish()
}

// report is what all-workload mode prints: every metric by name with its unit.
type report struct {
	Workloads map[string]result `json:"workloads"`
	Layers    *result           `json:"layers,omitempty"`
}

func (r report) correct() bool {
	ok := len(r.Workloads) == len(workloads)
	for _, res := range r.Workloads {
		ok = ok && res.Correct
	}
	return ok && (r.Layers == nil || r.Layers.Correct)
}

func oneSet(seed int64, seconds float64, layers, smoke bool) (report, error) {
	ws, err := timedSet(seed, seconds, smoke)
	rep := report{Workloads: ws}
	if err != nil || !layers {
		return rep, err
	}
	// The layer pass runs after, and apart from, the timed reps.
	ls, err := layerSet(seed, smoke)
	rep.Layers = &ls
	return rep, err
}

func runAll(seed int64, seconds float64, layers, selfcheck, smoke bool) int {
	a, err := oneSet(seed, seconds, layers, smoke)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	printReport(os.Stderr, a)
	raw, _ := json.MarshalIndent(a, "", "  ") // plain structs of strings and finite floats
	fmt.Printf("%s\n", raw)
	if !a.correct() {
		fmt.Fprintln(os.Stderr, "bench: FAILED: a check failed (see above)")
		return 1
	}
	if !selfcheck {
		return 0
	}
	b, err := oneSet(seed, seconds, layers, smoke)
	if err != nil || !b.correct() {
		fmt.Fprintf(os.Stderr, "bench: selfcheck: set B failed (%v)\n", err)
		return 1
	}
	return compareSets(a, b)
}

func printReport(w io.Writer, r report) {
	for _, wl := range workloads {
		res, ok := r.Workloads[wl.name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%s\n", wl.name)
		for _, n := range sortedKeys(res.Metrics) {
			fmt.Fprintf(w, "  %-44s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
		}
	}
	if r.Layers != nil {
		fmt.Fprintln(w, "layers")
		for _, n := range sortedKeys(r.Layers.Metrics) {
			fmt.Fprintf(w, "  %-44s %14.6g %s\n", n, r.Layers.Metrics[n].Value, r.Layers.Metrics[n].Unit)
		}
	}
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// --- selfcheck ---

// manifest is the part of ../BENCHMARK.json the bench itself reads.
type manifest struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []manifestMetric `json:"end_to_end"`
	PerLayer  []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name, Unit, Better string
	Bound              float64
}

func readManifest() (manifest, error) {
	var m manifest
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		return m, err
	}
	return m, json.Unmarshal(raw, &m)
}

// compareSets prints the A/B table and fails unless every end-to-end metric
// of set B is within its BENCHMARK.json bound of set A, and every per-layer
// count repeats exactly.
func compareSets(a, b report) int {
	m, err := readManifest()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: selfcheck: %v\n", err)
		return 1
	}
	bad := 0
	fmt.Fprintf(os.Stderr, "%-16s %-12s %14s %14s %8s %6s\n", "workload", "metric", "A", "B", "worse", "bound")
	for _, wl := range workloads {
		for _, mm := range m.EndToEnd {
			va, vb := a.Workloads[wl.name].Metrics[mm.Name].Value, b.Workloads[wl.name].Metrics[mm.Name].Value
			worse := (vb - va) / va
			if mm.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if worse > mm.Bound {
				verdict = "  OUT OF BOUND"
				bad++
			}
			fmt.Fprintf(os.Stderr, "%-16s %-12s %14.6g %14.6g %+7.1f%% %5.0f%%%s\n",
				wl.name, mm.Name, va, vb, 100*worse, 100*mm.Bound, verdict)
		}
	}
	if a.Layers != nil && b.Layers != nil {
		for _, n := range sortedKeys(a.Layers.Metrics) {
			va, vb := a.Layers.Metrics[n], b.Layers.Metrics[n]
			if va.Unit == "count" && va.Value != vb.Value {
				fmt.Fprintf(os.Stderr, "%-44s count changed: A=%v B=%v\n", n, va.Value, vb.Value)
				bad++
			}
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "bench: selfcheck FAILED: %d disagreement(s) between two runs of the same code\n", bad)
		return 1
	}
	fmt.Fprintln(os.Stderr, "bench: selfcheck ok: end-to-end metrics within bounds, counts identical")
	return 0
}
