package experiments

import (
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"pi2/internal/campaign"
	"pi2/internal/sim"
	"pi2/internal/traffic"
)

func testScenario(seed int64) Scenario {
	return Scenario{
		Seed:        seed,
		LinkRateBps: 10e6,
		NewAQM:      PI2Factory(20 * time.Millisecond),
		Bulk: []traffic.BulkFlowSpec{
			{CC: "cubic", Count: 1, RTT: 10 * time.Millisecond, Label: "A"},
			{CC: "dctcp", Count: 1, RTT: 10 * time.Millisecond, Label: "B"},
		},
		UDP:      []traffic.UDPSpec{{RateBps: 2e6}},
		Duration: 5 * time.Second,
		WarmUp:   2 * time.Second,
	}
}

// TestConcurrentRunsBitIdentical runs the same Scenario on several goroutines
// at once: each run owns its Simulator and RNG, so concurrency must not leak
// into the results. Any shared mutable state (a global rand, a package-level
// counter feeding the simulation) would break this — and trip -race.
func TestConcurrentRunsBitIdentical(t *testing.T) {
	const n = 4
	results := make([]*Result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = Run(testScenario(42))
		}()
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if !reflect.DeepEqual(results[0], results[i]) {
			t.Fatalf("concurrent run %d differs from run 0", i)
		}
	}
}

// TestSweepIdenticalAcrossJobs: the quick coexistence grid must produce the
// same points whether it runs serially or on a wide pool — per-cell seeds
// depend only on the cell's index, never on scheduling.
func TestSweepIdenticalAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("grid run in -short mode")
	}
	serial := must(CoexistenceSweep(campaign.Options{Grid: campaign.Grid{Quick: true}, ExecOptions: campaign.ExecOptions{Jobs: 1}}))
	wide := must(CoexistenceSweep(campaign.Options{Grid: campaign.Grid{Quick: true}, ExecOptions: campaign.ExecOptions{Jobs: 8}}))
	if !reflect.DeepEqual(serial, wide) {
		t.Fatal("sweep points differ between jobs=1 and jobs=8")
	}
}

// TestGridSeedsAreIndexStable: every grid cell's derived seed is a pure
// function of (base seed, cell index) — recorded seeds must match the
// derivation regardless of how many workers ran the grid.
func TestGridSeedsAreIndexStable(t *testing.T) {
	var tasks []campaign.Task
	for i := 0; i < 12; i++ {
		tasks = append(tasks, campaign.Task{
			Name:      "seedcheck",
			SeedIndex: i,
			Run:       func(tc *campaign.TaskCtx) any { return tc.Seed },
		})
	}
	for _, jobs := range []int{1, 3, 8} {
		recs := campaign.Execute(tasks, campaign.ExecOptions{Jobs: jobs, BaseSeed: 7})
		for i, rec := range recs {
			want := campaign.DeriveSeed(7, i)
			if rec.Seed != want || rec.Result.(int64) != want {
				t.Fatalf("jobs=%d cell %d: seed %d, want %d", jobs, i, rec.Seed, want)
			}
		}
	}
}

// TestRunRecordsIdenticalAcrossJobs runs a registered experiment through the
// campaign engine at jobs=1 and jobs=8 and compares the full run records —
// seeds, simulated event counts and scalar metrics. With per-simulation
// packet pools and the slab scheduler this doubles as the pooling-safety
// determinism check: any cross-run sharing of recycled packets or scheduler
// slots would perturb event counts or metrics between worker widths.
func TestRunRecordsIdenticalAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("grid run in -short mode")
	}
	capture := func(jobs int) []campaign.RunRecord {
		exp, ok := campaign.Lookup("fig12")
		if !ok {
			t.Fatal("fig12 not registered")
		}
		col := &campaign.Collector{}
		o := &campaign.Options{Grid: campaign.Grid{Quick: true, TimeDiv: 20}, ExecOptions: campaign.ExecOptions{BaseSeed: 1, Jobs: jobs, Collector: col}}
		if err := exp.Run(o, discard{}); err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		recs := col.Records()
		sort.Slice(recs, func(i, j int) bool {
			if recs[i].Name != recs[j].Name {
				return recs[i].Name < recs[j].Name
			}
			return recs[i].Index < recs[j].Index
		})
		return recs
	}
	serial := capture(1)
	wide := capture(8)
	if len(serial) == 0 || len(serial) != len(wide) {
		t.Fatalf("record counts differ: %d vs %d", len(serial), len(wide))
	}
	for i := range serial {
		a, b := serial[i], wide[i]
		if a.Name != b.Name || a.Index != b.Index || a.Seed != b.Seed {
			t.Fatalf("cell %d identity differs: %s[%d]/%d vs %s[%d]/%d",
				i, a.Name, a.Index, a.Seed, b.Name, b.Index, b.Seed)
		}
		if a.Events != b.Events {
			t.Errorf("%s[%d]: events %d (jobs=1) vs %d (jobs=8)", a.Name, a.Index, a.Events, b.Events)
		}
		if !reflect.DeepEqual(a.Metrics, b.Metrics) {
			t.Errorf("%s[%d]: metrics differ between jobs=1 and jobs=8", a.Name, a.Index)
		}
		if a.Err != "" || b.Err != "" {
			t.Errorf("%s[%d]: cell failed: %q / %q", a.Name, a.Index, a.Err, b.Err)
		}
	}
}

// discard is an io.Writer that swallows the experiment's printed output.
type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// TestUDPStatsAccounted pins satellite coverage for the per-source UDP
// accounting: an overloaded bottleneck must report sent, delivered and lost
// bytes that add up, with a strictly positive loss ratio.
func TestUDPStatsAccounted(t *testing.T) {
	sc := testScenario(1)
	sc.UDP = []traffic.UDPSpec{{RateBps: 20e6}} // 2x the 10 Mb/s link: forced loss
	res := Run(sc)
	if len(res.UDP) != 1 {
		t.Fatalf("got %d UDP results, want 1", len(res.UDP))
	}
	u := res.UDP[0]
	if u.SentBytes <= 0 || u.DeliveredBytes <= 0 {
		t.Fatalf("empty UDP accounting: %+v", u)
	}
	if u.LostBytes != u.SentBytes-u.DeliveredBytes {
		t.Errorf("lost %d != sent %d - delivered %d", u.LostBytes, u.SentBytes, u.DeliveredBytes)
	}
	if u.LossRatio < 0.2 {
		t.Errorf("loss ratio %.3f under 2x overload, want substantial", u.LossRatio)
	}
	if u.DeliveredBps <= 0 || u.DeliveredBps > sc.LinkRateBps*1.05 {
		t.Errorf("delivered rate %.0f bps implausible for a %.0f bps link", u.DeliveredBps, sc.LinkRateBps)
	}
}

// TestWatchdogKillsHungSimCell is the end-to-end robustness check with a
// real simulator: a cell whose event loop never reaches its horizon is
// cooperatively canceled by the wall-clock watchdog, the grid still returns
// a record for every cell, and healthy cells are untouched.
func TestWatchdogKillsHungSimCell(t *testing.T) {
	tasks := []campaign.Task{
		{Name: "healthy", SeedIndex: 0, Run: func(tc *campaign.TaskCtx) any {
			return Run(testScenario(tc.Seed))
		}},
		{Name: "hung", SeedIndex: 1, Run: func(tc *campaign.TaskCtx) any {
			s := sim.New(tc.Seed)
			tc.Watch(s)
			s.Every(time.Nanosecond, func() {}) // event storm: horizon never reached
			s.RunUntil(time.Hour)
			return "unreachable"
		}},
	}
	recs := campaign.Execute(tasks, campaign.ExecOptions{
		Jobs: 2, BaseSeed: 3,
		Watchdog: campaign.Watchdog{Timeout: 150 * time.Millisecond, Poll: 10 * time.Millisecond},
	})
	if recs[0].Err != "" {
		t.Errorf("healthy cell failed: %q", recs[0].Err)
	}
	if _, ok := recs[0].Result.(*Result); !ok {
		t.Error("healthy cell lost its result")
	}
	hung := recs[1]
	if !hung.TimedOut {
		t.Fatalf("hung sim cell not marked TimedOut: %+v", hung)
	}
	if !strings.Contains(hung.Err, "watchdog") {
		t.Errorf("error %q does not name the watchdog", hung.Err)
	}
	if hung.Result != nil {
		t.Errorf("hung cell has a result: %v", hung.Result)
	}
}

// TestChaosDeterministicAcrossJobs: the chaos grid — impairments, retries
// machinery and all — must produce identical points at any worker count.
func TestChaosDeterministicAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("grid run in -short mode")
	}
	o := campaign.Options{Grid: campaign.Grid{Quick: true, TimeDiv: 40}}
	serial, errS := Chaos(campaign.Options{Grid: campaign.Grid{Quick: o.Quick, TimeDiv: o.TimeDiv}, ExecOptions: campaign.ExecOptions{Jobs: 1}})
	wide, errW := Chaos(campaign.Options{Grid: campaign.Grid{Quick: o.Quick, TimeDiv: o.TimeDiv}, ExecOptions: campaign.ExecOptions{Jobs: 8}})
	if errS != nil || errW != nil {
		t.Fatalf("chaos cells failed: %v / %v", errS, errW)
	}
	if !reflect.DeepEqual(serial, wide) {
		t.Fatal("chaos points differ between jobs=1 and jobs=8")
	}
	// Faults must actually fire in the loss scenarios.
	for _, p := range serial {
		if (p.Scenario == "burst-loss" || p.Scenario == "chaos") && p.FaultDrops == 0 {
			t.Errorf("%s/%s: no injected losses", p.Scenario, p.AQM)
		}
	}
}
