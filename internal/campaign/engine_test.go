package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

type countedResult struct {
	Value  int
	events uint64
}

func (c countedResult) EventCount() uint64 { return c.events }

func squares(n int) []Task {
	tasks := make([]Task, n)
	for i := 0; i < n; i++ {
		i := i
		tasks[i] = Task{
			Name:      fmt.Sprintf("sq/%d", i),
			SeedIndex: i,
			Params:    map[string]any{"i": i},
			Run: func(tc *TaskCtx) any {
				return countedResult{Value: i * i, events: uint64(100 + i)}
			},
		}
	}
	return tasks
}

func TestExecuteOrderIndependentOfJobs(t *testing.T) {
	tasks := squares(17)
	var prev []RunRecord
	for _, jobs := range []int{1, 2, 5, 32} {
		recs := Execute(tasks, ExecOptions{Jobs: jobs, BaseSeed: 42})
		if len(recs) != len(tasks) {
			t.Fatalf("jobs=%d: %d records", jobs, len(recs))
		}
		for i, r := range recs {
			if r.Index != i || r.Result.(countedResult).Value != i*i {
				t.Fatalf("jobs=%d: record %d out of order: %+v", jobs, i, r)
			}
			if r.Seed != DeriveSeed(42, i) {
				t.Fatalf("jobs=%d: record %d seed %d", jobs, i, r.Seed)
			}
			if r.Events != uint64(100+i) {
				t.Fatalf("jobs=%d: record %d events %d", jobs, i, r.Events)
			}
		}
		if prev != nil {
			for i := range recs {
				if recs[i].Seed != prev[i].Seed ||
					!reflect.DeepEqual(recs[i].Result, prev[i].Result) {
					t.Fatalf("jobs=%d: record %d differs from previous worker count", jobs, i)
				}
			}
		}
		prev = recs
	}
}

func TestDeriveSeedProperties(t *testing.T) {
	seen := map[int64]bool{}
	for _, base := range []int64{0, 1, 2, 77, -5} {
		for i := 0; i < 100; i++ {
			s := DeriveSeed(base, i)
			if s == 0 {
				t.Fatalf("DeriveSeed(%d,%d) = 0", base, i)
			}
			if s != DeriveSeed(base, i) {
				t.Fatalf("DeriveSeed(%d,%d) unstable", base, i)
			}
			if seen[s] {
				t.Fatalf("DeriveSeed collision at base=%d i=%d", base, i)
			}
			seen[s] = true
		}
	}
	if DeriveSeed(1, 0) == DeriveSeed(2, 0) {
		t.Error("different bases produced the same seed")
	}
}

func TestExecutePanicFailsOneCellOnly(t *testing.T) {
	tasks := squares(5)
	tasks[2].Run = func(tc *TaskCtx) any { panic("boom") }
	recs := Execute(tasks, ExecOptions{Jobs: 3, BaseSeed: 1})
	for i, r := range recs {
		if i == 2 {
			if r.Err == "" || !strings.Contains(r.Err, "boom") {
				t.Errorf("cell 2: want captured panic, got %q", r.Err)
			}
			if r.Result != nil {
				t.Errorf("cell 2: result should be nil, got %v", r.Result)
			}
			continue
		}
		if r.Err != "" {
			t.Errorf("cell %d: unexpected error %q", i, r.Err)
		}
		if r.Result.(countedResult).Value != i*i {
			t.Errorf("cell %d: wrong result", i)
		}
	}
}

func TestExecuteProgressAndCollector(t *testing.T) {
	var calls atomic.Int64
	col := &Collector{}
	tasks := squares(9)
	Execute(tasks, ExecOptions{
		Jobs:     4,
		BaseSeed: 7,
		Progress: func(done, total int, rec RunRecord) {
			if total != 9 || done < 1 || done > 9 {
				t.Errorf("progress done=%d total=%d", done, total)
			}
			calls.Add(1)
		},
		Collector: col,
	})
	if calls.Load() != 9 {
		t.Errorf("progress called %d times, want 9", calls.Load())
	}
	if got := len(col.Records()); got != 9 {
		t.Errorf("collector holds %d records, want 9", got)
	}

	var buf bytes.Buffer
	if err := col.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded []RunRecord
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("collector JSON does not round-trip: %v", err)
	}
	if len(decoded) != 9 {
		t.Errorf("decoded %d records", len(decoded))
	}
}

func TestExecutePairedSeedIndex(t *testing.T) {
	// Two arms sharing a SeedIndex must receive the same seed (the PIE vs
	// PI2 paired-comparison pattern).
	tasks := []Task{
		{Name: "a", SeedIndex: 0, Run: func(tc *TaskCtx) any { return tc.Seed }},
		{Name: "b", SeedIndex: 0, Run: func(tc *TaskCtx) any { return tc.Seed }},
		{Name: "c", SeedIndex: 1, Run: func(tc *TaskCtx) any { return tc.Seed }},
	}
	recs := Execute(tasks, ExecOptions{Jobs: 2, BaseSeed: 5})
	if recs[0].Result != recs[1].Result {
		t.Error("paired arms got different seeds")
	}
	if recs[0].Result == recs[2].Result {
		t.Error("distinct seed indices got the same seed")
	}
}

func TestRegistry(t *testing.T) {
	run := func(o *Options, w io.Writer) error { return nil }
	Register(Experiment{Name: "test-exp-a", InAll: true, Run: run})
	Register(Experiment{Name: "test-exp-b", Run: run})

	if _, ok := Lookup("test-exp-a"); !ok {
		t.Fatal("registered experiment not found")
	}
	if _, ok := Lookup("no-such"); ok {
		t.Fatal("unknown name resolved")
	}
	names := Names()
	all := AllNames()
	has := func(xs []string, want string) bool {
		for _, x := range xs {
			if x == want {
				return true
			}
		}
		return false
	}
	if !has(names, "test-exp-a") || !has(names, "test-exp-b") {
		t.Error("Names missing registrations")
	}
	if !has(all, "test-exp-a") || has(all, "test-exp-b") {
		t.Errorf("AllNames wrong: %v", all)
	}

	defer func() {
		if recover() == nil {
			t.Error("duplicate Register did not panic")
		}
	}()
	Register(Experiment{Name: "test-exp-a", Run: run})
}

func TestOptionsMemo(t *testing.T) {
	o := &Options{}
	n := 0
	for i := 0; i < 3; i++ {
		v := o.Memo("k", func() any { n++; return 42 })
		if v.(int) != 42 {
			t.Fatalf("memo value %v", v)
		}
	}
	if n != 1 {
		t.Errorf("compute ran %d times, want 1", n)
	}
}

func TestGridDefaults(t *testing.T) {
	var zero Grid
	if zero.RepCount() != 1 || zero.TargetDelay() != 20*time.Millisecond || zero.Scale(time.Second) != time.Second {
		t.Errorf("zero grid: reps %d target %v scale %v", zero.RepCount(), zero.TargetDelay(), zero.Scale(time.Second))
	}
	g := Grid{Quick: true, Reps: 3, Target: 15 * time.Millisecond}
	if g.RepCount() != 3 || g.TargetDelay() != 15*time.Millisecond || g.Scale(time.Second) != 200*time.Millisecond {
		t.Errorf("quick grid: reps %d target %v scale %v", g.RepCount(), g.TargetDelay(), g.Scale(time.Second))
	}
	// TimeDiv wins over Quick's fixed 5x.
	if g.TimeDiv = 20; g.Scale(time.Second) != 50*time.Millisecond {
		t.Errorf("timediv 20: scale %v", g.Scale(time.Second))
	}
}
