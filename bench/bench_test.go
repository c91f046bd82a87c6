package main

import (
	"os"
	"regexp"
	"testing"
	"time"

	"pi2/internal/fleet"
)

// TestMain lets the test binary stand in for the bench binary where the bench
// re-executes itself: as a stdio fleet worker and as a TCP worker host.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-worker" {
		if err := fleet.Serve(os.Stdin, os.Stdout); err != nil {
			os.Exit(1)
		}
		os.Exit(0)
	}
	if len(os.Args) > 2 && os.Args[1] == "-serve" {
		fleet.ServeTCP(os.Args[2], os.Stdout, os.Stderr)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// conform holds one emitted metric set to its list in BENCHMARK.json: exactly
// those names, each with the listed unit, every name well-formed and every
// direction one the driver understands.
func conform(t *testing.T, what string, got map[string]metric, want []manifestMetric) {
	t.Helper()
	listed := map[string]bool{}
	for _, w := range want {
		listed[w.Name] = true
		if !metricName.MatchString(w.Name) {
			t.Errorf("%s: BENCHMARK.json metric name %q is malformed", what, w.Name)
		}
		if w.Better != "lower" && w.Better != "higher" {
			t.Errorf("%s: %s has direction %q", what, w.Name, w.Better)
		}
		g, ok := got[w.Name]
		if !ok {
			t.Errorf("%s: %s is in BENCHMARK.json but was not emitted", what, w.Name)
		} else if g.Unit != w.Unit {
			t.Errorf("%s: %s emitted in %q, BENCHMARK.json says %q", what, w.Name, g.Unit, w.Unit)
		}
	}
	for name := range got {
		if !listed[name] {
			t.Errorf("%s: %s was emitted but is not in BENCHMARK.json", what, name)
		}
	}
}

// TestSmoke runs every workload and the layer pass at smoke scale and checks
// that what they emit is what BENCHMARK.json promises.
func TestSmoke(t *testing.T) {
	start := time.Now()
	m, err := readManifest()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the bench has %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the bench has %q (%q)",
				i, m.Workloads[i].Name, m.Workloads[i].Why, w.name, w.why)
		}
		res, problems := runWorkload(w, smokeScale, 1, 0, nil)
		for _, p := range problems {
			t.Errorf("%s: check failed: %s", w.name, p)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.name, res.Correct, res.Attempted, res.Failed)
		}
		conform(t, w.name, res.Metrics, m.EndToEnd)
	}
	res, problems := layerPass(smokeScale, 1)
	for _, p := range problems {
		t.Errorf("layer pass: check failed: %s", p)
	}
	if res.Failed != 0 {
		t.Errorf("layer pass: %d of %d cells failed", res.Failed, res.Attempted)
	}
	conform(t, "layer pass", res.Metrics, m.PerLayer)
	if took := time.Since(start); took > 20*time.Second {
		t.Errorf("smoke run took %v, want under 20 s", took)
	}
}

func TestBucketOf(t *testing.T) {
	for fn, want := range map[string]string{
		"pi2/internal/sim.(*Simulator).siftDown": "sim",
		"pi2/internal/link.New.func1":            "link_aqm_core",
		"pi2/internal/core.(*PI2).Enqueue":       "link_aqm_core",
		"pi2/internal/tcp.(*Endpoint).onAck":     "tcp",
		"pi2/internal/stats.(*LogHistogram).Add": "stats_packet",
		"pi2/internal/fleet.(*Pool).runCell":     "campaign_fleet",
		"pi2/internal/fluid.Margins":             "other",
		"runtime.mallocgc":                       "runtime",
		"runtime/internal/syscall.Syscall6":      "runtime",
		"math.Sqrt":                              "other",
	} {
		if got := bucketOf(fn); got != want {
			t.Errorf("bucketOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
