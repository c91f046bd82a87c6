package fleet_test

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"pi2/internal/campaign"
	"pi2/internal/fleet"
)

// workerEnv re-executes this test binary as a fleet worker: TestMain sees
// the variable and serves the protocol instead of running tests.
const workerEnv = "PI2_FLEET_WORKER"

func TestMain(m *testing.M) {
	if os.Getenv(workerEnv) == "1" {
		if err := fleet.Serve(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "fleet test worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// fleetRes is the test cells' result payload.
type fleetRes struct {
	Index int
	Value float64
}

// testSpec parameterizes the registered test grid. Poison marks a cell
// that hard-exits the worker process mid-run (only in worker mode — the
// coordinator's in-process fallback must survive running it).
type testSpec struct {
	N       int `json:"n"`
	SleepMs int `json:"sleep_ms"`
	Poison  int `json:"poison"`
}

// wrapper is a registered result type whose field may hold an unregistered
// one: gob defines wrapper on the stream, then fails on Inner.
type wrapper struct{ Inner any }

type unregistered struct{ X int }

func init() {
	campaign.RegisterWireType(wrapper{})
	campaign.RegisterSource("fleetwrap", func([]byte) ([]campaign.Task, error) {
		tasks := make([]campaign.Task, 4)
		for i := range tasks {
			i := i
			tasks[i] = campaign.Task{Name: "fleetwrap", SeedIndex: i, Run: func(*campaign.TaskCtx) any {
				if i == 0 {
					return wrapper{Inner: unregistered{X: 1}}
				}
				return wrapper{Inner: fleetRes{Index: i}}
			}}
		}
		return tasks, nil
	})
	campaign.RegisterWireType(fleetRes{})
	campaign.RegisterSource("fleettest", func(raw []byte) ([]campaign.Task, error) {
		var sp testSpec
		if err := json.Unmarshal(raw, &sp); err != nil {
			return nil, err
		}
		tasks := make([]campaign.Task, sp.N)
		for i := range tasks {
			i := i
			tasks[i] = campaign.Task{
				Name:      "fleettest",
				SeedIndex: i,
				Params:    map[string]any{"i": i},
				Run: func(tc *campaign.TaskCtx) any {
					if sp.SleepMs > 0 {
						time.Sleep(time.Duration(sp.SleepMs) * time.Millisecond)
					}
					if i == sp.Poison-1 && os.Getenv(workerEnv) == "1" {
						os.Exit(3) // simulated OOM-kill, worker mode only
					}
					return fleetRes{Index: i, Value: float64(tc.Seed%1009) + float64(i)/7}
				},
			}
		}
		return tasks, nil
	})
}

// buildGrid resolves the registered source exactly as a worker would.
func buildGrid(t *testing.T, sp testSpec) ([]campaign.Task, campaign.ExecOptions) {
	t.Helper()
	raw, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	src, ok := campaign.LookupSource("fleettest")
	if !ok {
		t.Fatal("fleettest source not registered")
	}
	tasks, err := src(raw)
	if err != nil {
		t.Fatal(err)
	}
	return tasks, campaign.ExecOptions{
		Jobs: 2, BaseSeed: 1, Family: "fleettest", Spec: raw,
	}
}

func newTestPool(t *testing.T, workers int, onSpawn func(int)) *fleet.Pool {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	pool := fleet.NewHookedPool(fleet.Config{
		Workers: workers,
		Command: []string{exe},
		Env:     []string{workerEnv + "=1"},
	}, func(h *fleet.Hooks) { h.OnSpawn = onSpawn })
	t.Cleanup(pool.Close)
	return pool
}

// stripTiming drops the host-dependent fields so records can be compared
// exactly across execution paths.
func stripTiming(recs []campaign.RunRecord) []campaign.RunRecord {
	out := append([]campaign.RunRecord(nil), recs...)
	for i := range out {
		out[i].WallMs = 0
		out[i].EventsPerSec = 0
	}
	return out
}

func sameRecords(t *testing.T, want, got []campaign.RunRecord, ignoreAttempts bool) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("record count: want %d, got %d", len(want), len(got))
	}
	for i := range want {
		w, g := want[i], got[i]
		if ignoreAttempts {
			g.Attempts = w.Attempts
		}
		if w.Name != g.Name || w.Index != g.Index || w.Seed != g.Seed ||
			w.Err != g.Err || w.Attempts != g.Attempts ||
			fmt.Sprint(w.Params) != fmt.Sprint(g.Params) ||
			fmt.Sprint(w.Result) != fmt.Sprint(g.Result) {
			t.Errorf("record %d differs:\nwant %+v\ngot  %+v", i, w, g)
		}
	}
}

// TestFleetMatchesInProcess pins the determinism contract at the record
// level: the same grid through 1-worker and 3-worker fleets produces
// exactly the records the in-process pool produces.
func TestFleetMatchesInProcess(t *testing.T) {
	tasks, opt := buildGrid(t, testSpec{N: 9})
	want := stripTiming(campaign.Execute(tasks, opt))

	for _, workers := range []int{1, 3} {
		opt := opt
		opt.Dispatch = newTestPool(t, workers, nil)
		got := stripTiming(campaign.Execute(tasks, opt))
		sameRecords(t, want, got, false)
	}
}

// TestFleetSurvivesSIGKILL kills one worker process mid-campaign and
// verifies the grid still completes with the exact in-process records;
// the re-dispatched in-flight cell surfaces the crash in Attempts.
func TestFleetSurvivesSIGKILL(t *testing.T) {
	tasks, opt := buildGrid(t, testSpec{N: 6, SleepMs: 200})
	want := stripTiming(campaign.Execute(tasks, opt))

	pids := make(chan int, 2)
	opt.Dispatch = newTestPool(t, 2, func(pid int) { pids <- pid })

	done := make(chan []campaign.RunRecord, 1)
	go func() { done <- stripTiming(campaign.Execute(tasks, opt)) }()

	victim := <-pids
	// Both workers hold a 200 ms cell from t=0 (and again from t=200);
	// killing at t=300 lands mid-cell.
	time.Sleep(300 * time.Millisecond)
	if err := syscall.Kill(victim, syscall.SIGKILL); err != nil {
		t.Fatalf("kill worker %d: %v", victim, err)
	}

	got := <-done
	sameRecords(t, want, got, true) // Attempts differs on the re-dispatched cell
	redispatched := 0
	for _, rec := range got {
		if rec.Err != "" {
			t.Errorf("cell %d failed: %s", rec.Index, rec.Err)
		}
		if rec.Attempts > 1 {
			redispatched++
		}
	}
	if redispatched == 0 {
		t.Error("no record carries Attempts > 1 after a worker SIGKILL")
	}
}

// TestFleetCrashBudget aims a poison cell (hard process exit) at the
// fleet: it kills every worker it is dispatched to, exhausts the crash
// budget (Retries+1 re-dispatches), and gets an error record — while
// every other cell completes via re-dispatch or the in-process fallback.
func TestFleetCrashBudget(t *testing.T) {
	const poisonIdx = 2
	tasks, opt := buildGrid(t, testSpec{N: 5, Poison: poisonIdx + 1})
	opt.Dispatch = newTestPool(t, 2, nil)

	recs := stripTiming(campaign.Execute(tasks, opt))
	if len(recs) != 5 {
		t.Fatalf("got %d records, want 5", len(recs))
	}
	for _, rec := range recs {
		if rec.Index == poisonIdx {
			if !strings.Contains(rec.Err, "crash budget") {
				t.Errorf("poison cell: Err = %q, want crash-budget failure", rec.Err)
			}
			if rec.Attempts != 2 {
				t.Errorf("poison cell: Attempts = %d, want 2 (one per killed worker)", rec.Attempts)
			}
			continue
		}
		if rec.Err != "" {
			t.Errorf("cell %d: unexpected error %q", rec.Index, rec.Err)
		}
		if _, ok := rec.Result.(fleetRes); !ok {
			t.Errorf("cell %d: result %T, want fleetRes", rec.Index, rec.Result)
		}
	}
}

// TestFleetCrashBudgetWithRetries raises Retries so the poison cell falls
// through to the in-process fallback after killing both workers, where it
// completes (the coordinator is not a worker, so the poison is inert).
func TestFleetCrashBudgetWithRetries(t *testing.T) {
	const poisonIdx = 1
	tasks, opt := buildGrid(t, testSpec{N: 4, Poison: poisonIdx + 1})
	opt.Retries = 2 // crash budget 3 > the 2 workers available
	opt.Dispatch = newTestPool(t, 2, nil)

	recs := stripTiming(campaign.Execute(tasks, opt))
	for _, rec := range recs {
		if rec.Err != "" {
			t.Errorf("cell %d: unexpected error %q (fallback should have completed it)", rec.Index, rec.Err)
		}
	}
	if recs[poisonIdx].Attempts <= 1 {
		t.Errorf("poison cell: Attempts = %d, want > 1 (crashes recorded)", recs[poisonIdx].Attempts)
	}
}

// TestFleetUnencodableResult sends a result gob cannot encode mid-stream.
// The worker must report that cell FAILED and keep the link: cells after
// it decode on the same connection, which needs the worker's encoder and
// the coordinator's decoder both reset (the empty frame) — gob has already
// marked wrapper's definition as sent in the failed message.
func TestFleetUnencodableResult(t *testing.T) {
	src, _ := campaign.LookupSource("fleetwrap")
	tasks, err := src(nil)
	if err != nil {
		t.Fatal(err)
	}
	var errlog syncBuf
	pool := newPoolWith(t, fleet.Config{Workers: 1, Stderr: &errlog}, func(*fleet.Hooks) {})
	recs := campaign.Execute(tasks, campaign.ExecOptions{
		Jobs: 1, BaseSeed: 1, Family: "fleetwrap", Dispatch: pool,
	})
	if len(recs) != 4 {
		t.Fatalf("got %d records, want 4", len(recs))
	}
	if !strings.Contains(recs[0].Err, "not wire-encodable") || recs[0].Result != nil {
		t.Errorf("cell 0: Err %q, Result %v; want a stripped not-wire-encodable failure", recs[0].Err, recs[0].Result)
	}
	for _, rec := range recs[1:] {
		if want := (wrapper{Inner: fleetRes{Index: rec.Index}}); rec.Err != "" || rec.Result != want {
			t.Errorf("cell %d: Err %q, Result %+v; want %+v", rec.Index, rec.Err, rec.Result, want)
		}
	}
	if log := errlog.String(); strings.Contains(log, "link lost") {
		t.Errorf("the link dropped over an unencodable result:\n%s", log)
	}
}
