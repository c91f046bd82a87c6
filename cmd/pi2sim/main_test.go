package main

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"time"

	"pi2/internal/aqm"
)

// TestRunRejectsBadFlags: flag values that once panicked the run with a
// goroutine dump, or ran a negative AQM target, exit 2 with a one-line
// pi2sim: error instead, because the flags go through the same
// ScenarioJSON.Build checks as -config.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-link", "0"}, "link_mbps must be positive"},
		{[]string{"-link", "-5M"}, "link_mbps must be positive"},
		{[]string{"-rtt", "-1ms"}, "rtt must be non-negative"},
		{[]string{"-udp", "1e-9"}, "too slow"},
		{[]string{"-target", "-5ms"}, "target_ms = -5 must be non-negative"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(append(c.args, "-dur", "1s"), &stdout, &stderr)
		if code != 2 || !strings.HasPrefix(stderr.String(), "pi2sim: ") ||
			!strings.Contains(stderr.String(), c.want) || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stderr %q, %d stdout bytes; want exit 2 and %q",
				c.args, code, stderr.String(), stdout.Len(), c.want)
		}
	}
}

// TestParseKeepsTarget: -target reaches the AQM to the nanosecond, although
// the flags travel through ScenarioJSON's target_ms (1.005 ms in ms is
// 1004999.99… ns).
func TestParseKeepsTarget(t *testing.T) {
	for _, target := range []string{"1.005ms", "20ms", "333333ns"} {
		inv, code := parse([]string{"-target", target}, new(bytes.Buffer))
		if code >= 0 {
			t.Fatalf("-target %s: exit %d", target, code)
		}
		want, _ := time.ParseDuration(target)
		got := inv.sc.NewAQM(rand.New(rand.NewSource(1))).(aqm.FastForwarder).FFTarget()
		if got != want {
			t.Errorf("-target %s: the AQM's target is %d ns, want %d", target, got, want)
		}
	}
}

// TestReplicateFailsOnFailedRep: -reps 2 where every replication panics
// still prints the report header, names each failed rep on stderr and
// exits 1.
func TestReplicateFailsOnFailedRep(t *testing.T) {
	inv, code := parse([]string{"-reps", "2", "-dur", "1s"}, new(bytes.Buffer))
	if code >= 0 {
		t.Fatalf("parse: exit %d", code)
	}
	inv.sc.NewAQM = func(*rand.Rand) aqm.AQM { panic("no AQM") }
	var stdout, stderr bytes.Buffer
	code = replicate(&stdout, &stderr, inv.sc, inv.reps, 1, inv.label)
	if code != 1 || strings.Count(stderr.String(), "failed: panic: no AQM") != 2 ||
		!strings.Contains(stdout.String(), "aggregate over 0 reps") {
		t.Errorf("exit %d, stderr %q, stdout %q; want exit 1, two failed reps, an empty aggregate",
			code, stderr.String(), stdout.String())
	}
}
