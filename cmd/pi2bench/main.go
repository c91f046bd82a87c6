// Command pi2bench regenerates the paper's tables and figures.
//
// Usage:
//
//	pi2bench [-quick] [-seed N] [-jobs N] [-json file] [-v] <experiment>...
//
// Experiments are dispatched from the campaign registry; run with no
// arguments to list them. "all" expands to every primary experiment
// (fig15–fig18 are views of "sweep" and fig19–fig20 of "combos", so they
// are omitted from the expansion but can be requested by name).
//
// Grid experiments fan their independent runs across -jobs workers
// (default: GOMAXPROCS). Output is bit-identical at any -jobs value:
// each run's seed derives from the campaign seed and the run's position
// in its matrix, never from scheduling order. -json additionally writes
// every run's record (params, wall time, events/sec) to a file, streamed
// as cells complete.
//
// -workers N dispatches grid cells across N worker processes instead of
// in-process goroutines (see the fleet architecture in DESIGN.md): the
// binary re-executes itself with -worker and speaks a framed gob protocol
// over the worker's stdin/stdout. Tables, goldens and -json
// records stay byte-identical to any -jobs run; a killed worker's cells
// are re-dispatched to the survivors.
//
// The fleet also crosses machines: `pi2bench -serve :9000` turns a host
// into a worker host, and a coordinator started with -hosts <file> (lines:
// `addr [workers=N]`) dials them over TCP instead of spawning local
// processes, keeping the byte-identity contract. The handshake rejects
// drifted binaries explicitly; heartbeats let the coordinator kill and
// re-dispatch cells from wedged-but-alive workers; broken links reconnect
// with capped backoff. -journal <file> appends every final record to a
// crash-safe journal, and -resume replays it, skipping completed cells, so
// a killed coordinator loses at most its in-flight cells.
//
// -shards N partitions each heavy, sweep and chaos cell's simulation across
// N event-loop domains (conservative PDES with propagation-delay lookahead;
// see DESIGN.md); the other experiments run one loop whatever N is. The
// default 1 is the classic single loop and stays byte-identical to older
// builds; a fixed N > 1 is deterministic too, but produces its own (equally
// valid) event interleaving, so -seed and -shards are part of what a
// -resume must match in the journal. -reps N repeats heavy/sweep cells with
// perturbed seeds and prints cross-seed 95% confidence bands. -target
// overrides those drivers' AQM target delay (paper default 20 ms; Briscoe's
// "PI2 Parameters" report recommends 15 ms, the Linux dualpi2 default).
//
// -cell-timeout and -cell-stall arm a per-cell watchdog (wall-clock budget
// and simulated-clock stall detection); -retries re-runs killed or panicking
// cells with a perturbed seed. A failed cell does not stop its grid: the
// table still prints (zeros or a FAILED row where the cell would be), the
// experiment's error naming every failed cell goes to stderr, every later
// experiment still runs, and pi2bench exits 1 at the end.
//
// -check and -update-golden run the golden-regression harness instead:
// every named experiment (default "all" plus every registered name with a
// baseline) is captured at golden scale and compared against — or written
// to — the checked-in fingerprints (see internal/golden). Captures run at a
// fixed scale and seed and write no records, so the flags that would change
// either (-quick, -timediv, -seed, -shards, -ff, -reps, -target, the
// watchdog and retry flags, -json, -v) are rejected there.
//
// -cpuprofile, -memprofile and -trace capture pprof/execution-trace data
// over whatever workload the other flags select (see the profiling workflow
// in EXPERIMENTS.md); -tagfree poisons recycled packets to surface
// use-after-release bugs.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
	"strconv"
	"strings"
	"time"

	"pi2/internal/campaign"
	_ "pi2/internal/experiments" // registers every experiment
	"pi2/internal/fleet"
	"pi2/internal/golden"
	"pi2/internal/packet"
)

func main() {
	// Every campaign knob binds straight onto the one Options value the
	// experiments receive; the remaining flags pick a mode or build the
	// sinks and dispatcher that Options points at.
	var o campaign.Options
	flag.BoolVar(&o.Quick, "quick", false, "run scaled-down experiments (~5x shorter)")
	flag.IntVar(&o.TimeDiv, "timediv", 0, "divide experiment durations by N (overrides -quick's 5x; 0 = off)")
	flag.Int64Var(&o.BaseSeed, "seed", 1, "campaign base seed")
	flag.IntVar(&o.Jobs, "jobs", runtime.GOMAXPROCS(0), "parallel simulation runs")
	workers := flag.Int("workers", 0, "dispatch grid cells across N worker processes (0 = in-process -jobs pool); output is byte-identical either way")
	workerMode := flag.Bool("worker", false, "serve the fleet worker protocol on stdin/stdout (spawned by -workers; not for interactive use)")
	serveAddr := flag.String("serve", "", "run a fleet worker host listening on this TCP address (e.g. :9000; :0 picks a port, printed on stdout)")
	hostsPath := flag.String("hosts", "", "dispatch grid cells to the worker hosts in this inventory file (lines: addr [workers=N])")
	journalPath := flag.String("journal", "", "append every final run record to this crash-safe journal file")
	resume := flag.Bool("resume", false, "replay -journal before running, skipping already-completed cells")
	flag.IntVar(&o.Shards, "shards", 1, "event-loop domains per heavy, sweep and chaos cell (conservative PDES; other experiments run one loop); 1 = classic single loop")
	flag.BoolVar(&o.FF, "ff", false, "fast-forward quiescent congestion-avoidance epochs analytically (hybrid fluid/packet); also adds the 10k/50k-flow heavy cells")
	flag.IntVar(&o.Reps, "reps", 1, "repeat heavy/sweep cells N times with perturbed seeds and print ± confidence bands")
	flag.Var(millis{&o.Target}, "target", "AQM target delay in `ms` for heavy/sweep/chaos/interop (0 = the paper's 20; Briscoe's PI2 Parameters report suggests 15)")
	jsonPath := flag.String("json", "", "write per-run records (params, timing, events/sec) to this file")
	verbose := flag.Bool("v", false, "report each run's completion on stderr")
	check := flag.Bool("check", false, "compare golden-scale fingerprints against the checked-in baselines")
	update := flag.Bool("update-golden", false, "regenerate the checked-in golden fingerprints")
	goldenDir := flag.String("golden-dir", "", "golden directory for -check/-update-golden (default: embedded baselines for -check, "+golden.DefaultDir+" for -update-golden)")
	flag.DurationVar(&o.Watchdog.Timeout, "cell-timeout", 0, "wall-clock watchdog per grid cell (0 = off)")
	flag.DurationVar(&o.Watchdog.Stall, "cell-stall", 0, "kill a cell whose simulated clock stops advancing for this long (0 = off)")
	flag.IntVar(&o.Retries, "retries", 0, "re-run a failed or killed cell up to N times with a perturbed seed")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file at exit")
	tracePath := flag.String("trace", "", "write a runtime execution trace to this file")
	tagFree := flag.Bool("tagfree", false, "poison recycled packets to catch use-after-release (debug)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: pi2bench [-quick] [-timediv N] [-seed N] [-jobs N] [-workers N] [-shards N] [-ff] [-reps N]\n")
		fmt.Fprintf(os.Stderr, "                [-target ms] [-json file] [-v]\n")
		fmt.Fprintf(os.Stderr, "                [-cell-timeout d] [-cell-stall d] [-retries N]\n")
		fmt.Fprintf(os.Stderr, "                [-hosts file] [-journal file] [-resume] <experiment>...\n")
		fmt.Fprintf(os.Stderr, "       pi2bench -serve addr            (run a TCP worker host)\n")
		fmt.Fprintf(os.Stderr, "       pi2bench -check|-update-golden [-jobs N] [-golden-dir dir] [<experiment>...]\n\n")
		fmt.Fprintf(os.Stderr, "experiments:\n")
		for _, name := range campaign.Names() {
			e, _ := campaign.Lookup(name)
			all := "  "
			if e.InAll {
				all = "* "
			}
			fmt.Fprintf(os.Stderr, "  %s%-14s %s\n", all, name, e.Desc)
		}
		fmt.Fprintf(os.Stderr, "  * = included in \"all\"\n")
	}
	flag.Parse()
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := checkFlags(set, *check || *update, o.Target); err != nil {
		fmt.Fprintf(os.Stderr, "pi2bench: %v\n", err)
		os.Exit(2)
	}
	if *workerMode {
		if err := fleet.Serve(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "pi2bench: worker: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *serveAddr != "" {
		if err := fleet.ServeTCP(*serveAddr, os.Stdout, os.Stderr); err != nil {
			fmt.Fprintf(os.Stderr, "pi2bench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *tagFree {
		packet.PoisonFreed = true
	}
	stopProfiling, err := startProfiling(*cpuProfile, *tracePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pi2bench: %v\n", err)
		os.Exit(1)
	}
	var pool *fleet.Pool
	if *hostsPath != "" {
		f, err := os.Open(*hostsPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pi2bench: %v\n", err)
			os.Exit(1)
		}
		hosts, err := fleet.ParseHosts(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "pi2bench: %s: %v\n", *hostsPath, err)
			os.Exit(1)
		}
		pool = fleet.NewPool(fleet.Config{Hosts: hosts})
		o.Dispatch = pool
	} else if *workers > 0 {
		pool = fleet.NewPool(fleet.Config{Workers: *workers})
		o.Dispatch = pool
	}
	var journal *fleet.Journal
	if *resume {
		if *journalPath == "" {
			fmt.Fprintln(os.Stderr, "pi2bench: -resume needs -journal (the file to replay)")
			os.Exit(2)
		}
		rs, stats, err := fleet.LoadResume(*journalPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pi2bench: %v\n", err)
			os.Exit(1)
		}
		o.Resume = rs
		fmt.Fprintf(os.Stderr, "pi2bench: resume: replayed %d record(s) in %d segment(s)",
			stats.Records, stats.Segments)
		if stats.Truncated > 0 {
			fmt.Fprintf(os.Stderr, ", truncated %d torn byte(s)", stats.Truncated)
		}
		fmt.Fprintln(os.Stderr)
	}
	if *journalPath != "" {
		j, err := fleet.OpenJournal(*journalPath, os.Stderr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pi2bench: %v\n", err)
			os.Exit(1)
		}
		journal = j
		o.Journal = j
	}
	// Route every exit through here so profiles are flushed (and workers
	// reaped) even when a golden check fails or an experiment errors.
	exit := func(code int) {
		if pool != nil {
			pool.Close()
		}
		if journal != nil {
			journal.Close()
		}
		stopProfiling()
		if err := writeMemProfile(*memProfile); err != nil {
			fmt.Fprintf(os.Stderr, "pi2bench: %v\n", err)
			if code == 0 {
				code = 1
			}
		}
		os.Exit(code)
	}
	if *check || *update {
		exit(goldenMode(*check, *update, *goldenDir, o.ExecOptions, flag.Args()))
	}
	if flag.NArg() == 0 {
		flag.Usage()
		exit(2)
	}

	var jsonFile *os.File
	if *jsonPath != "" {
		// Stream records to disk as cells complete instead of retaining
		// the whole campaign in memory — at fleet scale the record set is
		// the dominant allocation.
		f, err := os.Create(*jsonPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pi2bench: %v\n", err)
			exit(1)
		}
		jsonFile = f
		o.Collector = campaign.NewStreamingCollector(f)
	}
	if *verbose {
		o.Progress = func(done, total int, rec campaign.RunRecord) {
			fmt.Fprintf(os.Stderr, "[%d/%d] %s (%.1fs, %.0f events/s)\n",
				done, total, rec.Name, rec.WallMs/1e3, rec.EventsPerSec)
		}
	}

	var names []string
	seen := map[string]bool{}
	add := func(n string) {
		if !seen[n] {
			seen[n] = true
			names = append(names, n)
		}
	}
	for _, a := range flag.Args() {
		if a == "all" {
			for _, n := range campaign.AllNames() {
				add(n)
			}
			continue
		}
		if _, ok := campaign.Lookup(a); !ok {
			fmt.Fprintf(os.Stderr, "pi2bench: unknown experiment %q\n\n", a)
			flag.Usage()
			exit(2)
		}
		add(a)
	}

	code := 0
	for _, name := range names {
		e, _ := campaign.Lookup(name)
		if err := e.Run(&o, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "pi2bench: %s: %v\n", name, err)
			code = 1
		}
	}

	if jsonFile != nil {
		if err := o.Collector.Close(); err == nil {
			err = jsonFile.Close()
		} else {
			jsonFile.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "pi2bench: writing %s: %v\n", *jsonPath, err)
			code = 1
		}
	}
	exit(code)
}

// goldenIgnored lists the flags -check and -update-golden do not honour:
// a golden capture runs at a fixed scale and seed and writes no records.
var goldenIgnored = []string{"quick", "timediv", "seed", "shards", "ff", "reps", "target",
	"cell-timeout", "cell-stall", "retries", "json", "v"}

// checkFlags rejects flag inputs that would otherwise be silently ignored or
// overridden. set names every flag given on the command line, golden says
// whether -check or -update-golden was requested, and target is -target's
// value.
func checkFlags(set map[string]bool, golden bool, target time.Duration) error {
	if golden {
		var ignored []string
		for _, name := range goldenIgnored {
			if set[name] {
				ignored = append(ignored, "-"+name)
			}
		}
		if len(ignored) > 0 {
			return fmt.Errorf("-check and -update-golden run at golden scale and ignore %s", strings.Join(ignored, " "))
		}
	}
	if set["hosts"] && set["workers"] {
		return errors.New("-hosts and -workers are exclusive: the hosts file sets each host's worker count")
	}
	if target < 0 {
		return fmt.Errorf("-target %d: the target delay cannot be negative", target/time.Millisecond)
	}
	return nil
}

// millis binds a flag given in whole milliseconds (-target 15) to a
// time.Duration.
type millis struct{ d *time.Duration }

func (m millis) String() string {
	if m.d == nil {
		return "0"
	}
	return strconv.FormatInt(int64(*m.d/time.Millisecond), 10)
}

func (m millis) Set(s string) error {
	n, err := strconv.ParseInt(s, 0, strconv.IntSize)
	if err != nil {
		return err.(*strconv.NumError).Err
	}
	*m.d = time.Duration(n) * time.Millisecond
	return nil
}

// startProfiling begins CPU profiling and execution tracing as requested and
// returns a function that stops both (idempotent, safe when neither is on).
func startProfiling(cpuPath, tracePath string) (func(), error) {
	var cpuFile, traceFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("starting CPU profile: %w", err)
		}
		cpuFile = f
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			if cpuFile != nil {
				pprof.StopCPUProfile()
				cpuFile.Close()
			}
			return nil, err
		}
		if err := rtrace.Start(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("starting execution trace: %w", err)
		}
		traceFile = f
	}
	stopped := false
	return func() {
		if stopped {
			return
		}
		stopped = true
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if traceFile != nil {
			rtrace.Stop()
			traceFile.Close()
		}
	}, nil
}

// writeMemProfile dumps an allocation profile (after a final GC, so the
// numbers reflect live retention rather than collection timing).
func writeMemProfile(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("writing memory profile: %w", err)
	}
	return f.Close()
}

// goldenMode runs -check or -update-golden over the named experiments
// (default: the "all" expansion, which already covers every simulation grid
// — fig15–fig18 and fig19–fig20 are views of "sweep" and "combos"). It
// returns the process exit code.
func goldenMode(check, update bool, dir string, ex golden.Exec, args []string) int {
	if check && update {
		fmt.Fprintln(os.Stderr, "pi2bench: -check and -update-golden are mutually exclusive")
		return 2
	}
	names := args
	if len(names) == 0 {
		names = campaign.AllNames()
	}
	for _, name := range names {
		if _, ok := campaign.Lookup(name); !ok {
			fmt.Fprintf(os.Stderr, "pi2bench: unknown experiment %q\n", name)
			return 2
		}
	}
	if update {
		if dir == "" {
			dir = golden.DefaultDir
		}
		for _, name := range names {
			fp, err := golden.Capture(name, ex)
			if err != nil {
				fmt.Fprintf(os.Stderr, "pi2bench: %v\n", err)
				return 1
			}
			if err := golden.Save(dir, fp); err != nil {
				fmt.Fprintf(os.Stderr, "pi2bench: %v\n", err)
				return 1
			}
			fmt.Printf("golden: wrote %s (%d runs)\n", name, len(fp.Runs))
		}
		return 0
	}
	failed := 0
	for _, name := range names {
		mismatches, err := golden.Check(name, dir, ex)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pi2bench: %v\n", err)
			return 1
		}
		if len(mismatches) == 0 {
			fmt.Printf("golden: %-14s ok\n", name)
			continue
		}
		failed++
		fmt.Printf("golden: %-14s FAIL (%d mismatches)\n", name, len(mismatches))
		for _, m := range mismatches {
			fmt.Printf("  %s\n", m)
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "pi2bench: golden check failed for %d experiment(s)\n", failed)
		return 1
	}
	return 0
}
