package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"

	"pi2/internal/packet"
	"pi2/internal/tcp"
	"pi2/internal/traffic"
)

// ScenarioJSON is the file format `pi2sim -config` accepts: a declarative
// scenario description with durations as Go strings ("100ms") and the AQM
// by name, so whole experiments can be versioned as small JSON documents.
type ScenarioJSON struct {
	Seed          int64          `json:"seed"`
	LinkMbps      float64        `json:"link_mbps"`
	BufferPackets int            `json:"buffer_packets,omitempty"`
	AQM           string         `json:"aqm"`
	TargetMs      float64        `json:"target_ms,omitempty"`
	Duration      string         `json:"duration"`
	WarmUp        string         `json:"warmup,omitempty"`
	SACK          bool           `json:"sack,omitempty"`
	AckEvery      int            `json:"ack_every,omitempty"`
	Flows         []FlowJSON     `json:"flows"`
	UDP           []UDPJSON      `json:"udp,omitempty"`
	RateChanges   []RateChngJSON `json:"rate_changes,omitempty"`
}

// FlowJSON describes one bulk-flow group.
type FlowJSON struct {
	CC    string `json:"cc"`
	Count int    `json:"count"`
	RTT   string `json:"rtt"`
	Label string `json:"label,omitempty"`
}

// UDPJSON describes one CBR source.
type UDPJSON struct {
	RateMbps float64 `json:"rate_mbps"`
	Start    string  `json:"start,omitempty"`
	Stop     string  `json:"stop,omitempty"`
}

// RateChngJSON switches the link capacity mid-run.
type RateChngJSON struct {
	At       string  `json:"at"`
	RateMbps float64 `json:"rate_mbps"`
}

// LoadScenario decodes and validates a JSON scenario into a runnable one.
func LoadScenario(r io.Reader) (Scenario, error) {
	var j ScenarioJSON
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&j); err != nil {
		return Scenario{}, fmt.Errorf("scenario: %w", err)
	}
	return j.Build()
}

// Build converts the JSON form into a Scenario.
func (j ScenarioJSON) Build() (Scenario, error) {
	linkBps, err := rateBps("link_mbps", j.LinkMbps)
	if err != nil {
		return Scenario{}, err
	}
	if len(j.Flows) == 0 && len(j.UDP) == 0 {
		return Scenario{}, fmt.Errorf("scenario: no traffic defined")
	}
	// The range check also keeps the conversion below defined.
	if ns := j.TargetMs * float64(time.Millisecond); !(ns >= 0 && ns < math.MaxInt64) {
		return Scenario{}, fmt.Errorf("scenario: target_ms = %v must be non-negative and fit a duration", j.TargetMs)
	}
	target := 20 * time.Millisecond
	if j.TargetMs > 0 {
		// Rounded, so a whole number of nanoseconds given in ms (as pi2sim
		// passes -target) comes back exact: 1.005 ms·1e6 is 1004999.99….
		target = time.Duration(math.Round(j.TargetMs * float64(time.Millisecond)))
	}
	aqmName := j.AQM
	if aqmName == "" {
		aqmName = "pi2"
	}
	factory, ok := FactoryByName(aqmName, target)
	if !ok {
		return Scenario{}, fmt.Errorf("scenario: unknown aqm %q", aqmName)
	}
	dur, err := parseDur("duration", j.Duration, true)
	if err != nil {
		return Scenario{}, err
	}
	warm, err := parseDur("warmup", j.WarmUp, false)
	if err != nil {
		return Scenario{}, err
	}
	sc := Scenario{
		Seed:          j.Seed,
		LinkRateBps:   linkBps,
		BufferPackets: j.BufferPackets,
		NewAQM:        factory,
		Duration:      dur,
		WarmUp:        warm,
		SACK:          j.SACK,
		AckEvery:      j.AckEvery,
	}
	if sc.Seed == 0 {
		sc.Seed = 1
	}
	for i, f := range j.Flows {
		rtt, err := parseDur(fmt.Sprintf("flows[%d].rtt", i), f.RTT, true)
		if err != nil {
			return Scenario{}, err
		}
		if f.Count <= 0 {
			return Scenario{}, fmt.Errorf("scenario: flows[%d].count must be positive", i)
		}
		if _, _, err := tcp.NewCC(f.CC); err != nil {
			return Scenario{}, fmt.Errorf("scenario: flows[%d].cc: %w", i, err)
		}
		sc.Bulk = append(sc.Bulk, traffic.BulkFlowSpec{
			CC: f.CC, Count: f.Count, RTT: rtt, Label: f.Label,
		})
	}
	for i, u := range j.UDP {
		bps, err := rateBps(fmt.Sprintf("udp[%d].rate_mbps", i), u.RateMbps)
		if err != nil {
			return Scenario{}, err
		}
		start, err := parseDur(fmt.Sprintf("udp[%d].start", i), u.Start, false)
		if err != nil {
			return Scenario{}, err
		}
		stop, err := parseDur(fmt.Sprintf("udp[%d].stop", i), u.Stop, false)
		if err != nil {
			return Scenario{}, err
		}
		sc.UDP = append(sc.UDP, traffic.UDPSpec{
			RateBps: bps, StartAt: start, StopAt: stop,
		})
	}
	for i, rc := range j.RateChanges {
		at, err := parseDur(fmt.Sprintf("rate_changes[%d].at", i), rc.At, true)
		if err != nil {
			return Scenario{}, err
		}
		bps, err := rateBps(fmt.Sprintf("rate_changes[%d].rate_mbps", i), rc.RateMbps)
		if err != nil {
			return Scenario{}, err
		}
		sc.RateChanges = append(sc.RateChanges, RateChange{At: at, RateBps: bps})
	}
	return sc, nil
}

// rateBps converts a rate in Mb/s to bits/s. It rejects a rate so slow that
// one full-size packet's transmission time overflows a time.Duration.
func rateBps(field string, mbps float64) (float64, error) {
	bps := mbps * 1e6
	if !(bps > 0) {
		return 0, fmt.Errorf("scenario: %s must be positive, got %v", field, mbps)
	}
	if float64(packet.FullLen*8)/bps*float64(time.Second) >= math.MaxInt64 {
		return 0, fmt.Errorf("scenario: %s = %v is too slow to send one packet", field, mbps)
	}
	return bps, nil
}

func parseDur(field, s string, required bool) (time.Duration, error) {
	if s == "" {
		if required {
			return 0, fmt.Errorf("scenario: %s is required", field)
		}
		return 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("scenario: %s: %w", field, err)
	}
	if d < 0 {
		return 0, fmt.Errorf("scenario: %s must be non-negative", field)
	}
	return d, nil
}
