package experiments

import (
	"strings"
	"testing"
	"time"
)

// Scenarios LoadScenario once accepted and Run then panicked on.
const (
	zeroUDPJSON        = `{"link_mbps":10,"duration":"1s","udp":[{"rate_mbps":0}]}`
	zeroRateChangeJSON = `{"link_mbps":10,"duration":"1s","flows":[{"cc":"reno","count":1,"rtt":"10ms"}],"rate_changes":[{"at":"500ms","rate_mbps":-1}]}`
	unknownCCJSON      = `{"link_mbps":10,"duration":"1s","flows":[{"cc":"bogus","count":1,"rtt":"10ms"}]}`
	// A packet at these rates takes longer than a time.Duration can hold.
	tinyUDPJSON        = `{"link_mbps":10,"duration":"1s","udp":[{"rate_mbps":1e-12}]}`
	tinyRateChangeJSON = `{"link_mbps":10,"duration":"1s","flows":[{"cc":"reno","count":1,"rtt":"10ms"}],"rate_changes":[{"at":"0s","rate_mbps":1e-12}]}`
	// A target this long overflows a time.Duration: accepted once, it ran
	// with whatever the conversion wrapped to.
	hugeTargetJSON = `{"link_mbps":10,"target_ms":1e300,"duration":"1s","flows":[{"cc":"reno","count":1,"rtt":"10ms"}]}`
)

const sampleJSON = `{
  "seed": 7,
  "link_mbps": 10,
  "aqm": "pi2",
  "duration": "20s",
  "warmup": "5s",
  "sack": true,
  "flows": [
    {"cc": "reno", "count": 3, "rtt": "100ms", "label": "bulk"}
  ],
  "udp": [{"rate_mbps": 2, "start": "5s", "stop": "15s"}],
  "rate_changes": [{"at": "10s", "rate_mbps": 5}]
}`

func TestLoadScenarioRoundTrip(t *testing.T) {
	sc, err := LoadScenario(strings.NewReader(sampleJSON))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Seed != 7 || sc.LinkRateBps != 10e6 || sc.Duration != 20*time.Second {
		t.Errorf("basics wrong: %+v", sc)
	}
	if !sc.SACK || len(sc.Bulk) != 1 || sc.Bulk[0].Count != 3 || sc.Bulk[0].RTT != 100*time.Millisecond {
		t.Errorf("flows wrong: %+v", sc.Bulk)
	}
	if len(sc.UDP) != 1 || sc.UDP[0].RateBps != 2e6 || sc.UDP[0].StopAt != 15*time.Second {
		t.Errorf("udp wrong: %+v", sc.UDP)
	}
	if len(sc.RateChanges) != 1 || sc.RateChanges[0].RateBps != 5e6 {
		t.Errorf("rate changes wrong: %+v", sc.RateChanges)
	}
	// And it actually runs.
	res := Run(sc)
	if res.Utilization <= 0 {
		t.Error("loaded scenario produced nothing")
	}
}

func TestLoadScenarioErrors(t *testing.T) {
	cases := []struct {
		name, js, want string
	}{
		{"bad json", `{`, "scenario"},
		{"unknown field", `{"link_mbps":10,"duration":"1s","nope":1,"flows":[{"cc":"reno","count":1,"rtt":"1ms"}]}`, "nope"},
		{"no link", `{"duration":"1s","flows":[{"cc":"reno","count":1,"rtt":"1ms"}]}`, "link_mbps"},
		{"no traffic", `{"link_mbps":10,"duration":"1s"}`, "no traffic"},
		{"bad aqm", `{"link_mbps":10,"aqm":"fifo2","duration":"1s","flows":[{"cc":"reno","count":1,"rtt":"1ms"}]}`, "unknown aqm"},
		{"no duration", `{"link_mbps":10,"flows":[{"cc":"reno","count":1,"rtt":"1ms"}]}`, "duration is required"},
		{"bad rtt", `{"link_mbps":10,"duration":"1s","flows":[{"cc":"reno","count":1,"rtt":"fast"}]}`, "rtt"},
		{"zero count", `{"link_mbps":10,"duration":"1s","flows":[{"cc":"reno","count":0,"rtt":"1ms"}]}`, "count"},
		{"negative time", `{"link_mbps":10,"duration":"-1s","flows":[{"cc":"reno","count":1,"rtt":"1ms"}]}`, "non-negative"},
		{"zero udp rate", zeroUDPJSON, "udp[0].rate_mbps"},
		{"negative rate change", zeroRateChangeJSON, "rate_changes[0].rate_mbps"},
		{"unknown cc", unknownCCJSON, "flows[0].cc"},
		{"tiny udp rate", tinyUDPJSON, "udp[0].rate_mbps"},
		{"tiny rate change", tinyRateChangeJSON, "rate_changes[0].rate_mbps"},
		{"tiny link", `{"link_mbps":1e-15,"duration":"1s","flows":[{"cc":"reno","count":1,"rtt":"1ms"}]}`, "too slow"},
		{"huge target", hugeTargetJSON, "target_ms"},
		{"negative target", `{"link_mbps":10,"target_ms":-5,"duration":"1s","flows":[{"cc":"reno","count":1,"rtt":"1ms"}]}`, "target_ms"},
	}
	for _, c := range cases {
		_, err := LoadScenario(strings.NewReader(c.js))
		if err == nil {
			t.Errorf("%s: no error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q missing %q", c.name, err, c.want)
		}
	}
}

func TestLoadScenarioDefaults(t *testing.T) {
	sc, err := LoadScenario(strings.NewReader(
		`{"link_mbps":10,"duration":"1s","flows":[{"cc":"reno","count":1,"rtt":"1ms"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Seed != 1 {
		t.Errorf("default seed = %d", sc.Seed)
	}
	if sc.NewAQM == nil {
		t.Error("default AQM not set")
	}
}

// FuzzLoadScenario: every scenario LoadScenario accepts runs to completion
// with no panic, which includes a clean link auditor (Run panics on a
// violated invariant). Inputs too large for one fuzz iteration are skipped.
func FuzzLoadScenario(f *testing.F) {
	for _, js := range []string{
		`{"link_mbps":10,"duration":"1s","flows":[{"cc":"cubic","count":2,"rtt":"20ms"}],` +
			`"udp":[{"rate_mbps":1,"start":"200ms"}],"rate_changes":[{"at":"500ms","rate_mbps":5}]}`,
		zeroUDPJSON, zeroRateChangeJSON, unknownCCJSON, tinyUDPJSON, tinyRateChangeJSON, hugeTargetJSON,
	} {
		f.Add([]byte(js))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := LoadScenario(strings.NewReader(string(data)))
		if err != nil {
			return
		}
		if scenarioTooLarge(sc) {
			t.Skip("too large for a fuzz iteration")
		}
		Run(sc)
	})
}

// scenarioTooLarge bounds a fuzzed run: at most 2 s simulated, 8 flows and
// 100 Mb/s on any rate (link, rate change or UDP source).
func scenarioTooLarge(sc Scenario) bool {
	const maxBps = 100e6
	flows := 0
	for _, b := range sc.Bulk {
		flows += b.Count
	}
	if sc.Duration > 2*time.Second || flows > 8 || sc.LinkRateBps > maxBps {
		return true
	}
	for _, rc := range sc.RateChanges {
		if rc.RateBps > maxBps {
			return true
		}
	}
	for _, u := range sc.UDP {
		if u.RateBps > maxBps {
			return true
		}
	}
	return false
}
