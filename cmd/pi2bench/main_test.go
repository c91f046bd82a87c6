package main

import (
	"strings"
	"testing"
	"time"
)

func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		name   string
		set    string // flags given on the command line
		golden bool
		target time.Duration
		want   string // substring of the error; "" = accepted
	}{
		{"defaults", "", false, 0, ""},
		{"knobs", "quick timediv seed reps target json v", false, 15 * time.Millisecond, ""},
		{"check plain", "", true, 0, ""},
		{"check with exec flags", "jobs workers journal resume golden-dir tagfree cpuprofile", true, 0, ""},
		{"check with hosts", "hosts", true, 0, ""},
		{"check ignores grid knobs", "ff shards seed reps target json", true, 3 * time.Millisecond,
			"ignore -seed -shards -ff -reps -target -json"},
		{"check ignores every listed flag", "v json retries cell-stall cell-timeout target reps ff shards seed timediv quick", true, 0,
			"ignore -quick -timediv -seed -shards -ff -reps -target -cell-timeout -cell-stall -retries -json -v"},
		{"update ignores a knob", "quick", true, 0, "ignore -quick"},
		{"hosts and workers", "hosts workers", false, 0, "-hosts and -workers are exclusive"},
		{"negative target", "target", false, -5 * time.Millisecond, "-target -5"},
	} {
		t.Run(c.name, func(t *testing.T) {
			set := map[string]bool{}
			for _, name := range strings.Fields(c.set) {
				set[name] = true
			}
			err := checkFlags(set, c.golden, c.target)
			switch {
			case c.want == "" && err != nil:
				t.Errorf("rejected: %v", err)
			case c.want != "" && err == nil:
				t.Errorf("accepted, want an error containing %q", c.want)
			case c.want != "" && !strings.Contains(err.Error(), c.want):
				t.Errorf("error %q, want it to contain %q", err, c.want)
			}
		})
	}
}

func TestMillisFlag(t *testing.T) {
	var d time.Duration
	m := millis{&d}
	if err := m.Set("15"); err != nil || d != 15*time.Millisecond || m.String() != "15" {
		t.Errorf("Set(15): d=%v String=%q err=%v", d, m.String(), err)
	}
	if err := m.Set("-5"); err != nil || d != -5*time.Millisecond {
		t.Errorf("Set(-5): d=%v err=%v; checkFlags, not the parser, rejects negatives", d, err)
	}
	if err := m.Set("1.5"); err == nil {
		t.Error("fractional milliseconds accepted; -target takes whole milliseconds")
	}
	if (millis{}).String() != "0" {
		t.Error("zero millis does not print as 0")
	}
}
