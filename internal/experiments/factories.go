package experiments

import (
	"math/rand"
	"time"

	"pi2/internal/aqm"
	"pi2/internal/core"
	"pi2/internal/link"
	"pi2/internal/packet"
	"pi2/internal/sim"
	"pi2/internal/stats"
)

// PI2Factory builds the paper's PI2 AQM (Table 1 defaults scaled to the
// given target; gains α = 5/16, β = 50/16, T = 32 ms, k = 2).
func PI2Factory(target time.Duration) AQMFactory {
	return func(rng *rand.Rand) aqm.AQM {
		return core.New(core.Config{Target: target}, rng)
	}
}

// PIEFactory builds the full Linux-style PIE baseline with the paper's
// reworked ECN overload rule (never drop ECN-capable packets; cap p at 25 %)
// so coexistence results have no discontinuity, exactly as in Section 5.
func PIEFactory(target time.Duration) AQMFactory {
	return func(rng *rand.Rand) aqm.AQM {
		cfg := aqm.DefaultPIEConfig()
		cfg.Target = target
		cfg.ECN = true
		cfg.ReworkedECN = true
		return aqm.NewPIE(cfg, rng)
	}
}

// BarePIEFactory builds PIE with every extra heuristic disabled (the
// paper's bare-PIE control).
func BarePIEFactory(target time.Duration) AQMFactory {
	return func(rng *rand.Rand) aqm.AQM {
		cfg := aqm.BarePIEConfig()
		cfg.Target = target
		cfg.ECN = true
		cfg.ReworkedECN = true
		return aqm.NewPIE(cfg, rng)
	}
}

// PIFactory builds the plain non-tuned PI AQM — the 'pi' curve of Figure 6
// (PIE base gains applied directly, no scaling, no squaring).
func PIFactory(target time.Duration) AQMFactory {
	return func(rng *rand.Rand) aqm.AQM {
		return aqm.NewPI(aqm.PIConfig{Alpha: 0.125, Beta: 1.25, Target: target}, rng)
	}
}

// FactoryByName resolves an AQM name used on CLI flags and sweep labels.
// Recognized: pi2, pie, bare-pie, pi, red, codel, taildrop.
func FactoryByName(name string, target time.Duration) (AQMFactory, bool) {
	switch name {
	case "pi2":
		return PI2Factory(target), true
	case "pie":
		return PIEFactory(target), true
	case "bare-pie":
		return BarePIEFactory(target), true
	case "pi":
		return PIFactory(target), true
	case "red":
		return func(rng *rand.Rand) aqm.AQM {
			return aqm.NewRED(aqm.REDConfig{ECN: true}, rng)
		}, true
	case "codel":
		return func(rng *rand.Rand) aqm.AQM {
			return aqm.NewCoDel(aqm.CoDelConfig{ECN: true})
		}, true
	case "taildrop":
		return func(rng *rand.Rand) aqm.AQM { return aqm.TailDrop{} }, true
	}
	return nil, false
}

// setBottleneck sets the scenario's bottleneck discipline by name at the
// given target delay: "dualpi2" is a core.DualLink whose two queues feed
// one sojourn collector (the combined distribution), any other name a FIFO
// under FactoryByName's AQM. An unknown name panics, failing the cell.
func (sc *Scenario) setBottleneck(name string, target time.Duration) {
	if name == "dualpi2" {
		sc.Bottleneck = dualPI2(target, nil)
		return
	}
	factory, ok := FactoryByName(name, target)
	if !ok {
		panic("unknown AQM " + name)
	}
	sc.NewAQM = factory
}

// dualPI2 is a Scenario.Bottleneck building a core.DualLink at the given
// target. Its C queue feeds the run's sojourn collector, and its L queue
// feeds lSojourn, or with nil the same collector.
func dualPI2(target time.Duration, lSojourn stats.Quantiler) func(*sim.Simulator, link.Config, func(*packet.Packet)) (*link.Link, func()) {
	return func(s *sim.Simulator, cfg link.Config, deliver func(*packet.Packet)) (*link.Link, func()) {
		l := lSojourn
		if l == nil {
			l = cfg.Sojourn
		}
		d := core.NewDualLink(s, cfg.RateBps, core.DualConfig{
			Config:        core.Config{Target: target},
			BufferPackets: cfg.BufferPackets,
			LSojourn:      l,
			CSojourn:      cfg.Sojourn,
		}, deliver)
		return d.Link, d.ResetStats
	}
}
