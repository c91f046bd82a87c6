package fleet_test

import (
	"io"
	"testing"
	"time"

	"pi2/internal/campaign"
	_ "pi2/internal/experiments" // every experiment family, in this binary's worker hosts too
	"pi2/internal/fleet"
	"pi2/internal/golden"
)

// TestGoldensThroughChaos recaptures every registered experiment's golden
// fingerprint through a TCP fleet whose connections drop and truncate
// frames at random (seeded), so cells requeue and links redial throughout.
// Every fingerprint must still match its checked-in baseline.
func TestGoldensThroughChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("recaptures every golden experiment")
	}
	pool := fleet.NewHookedPool(fleet.Config{
		Hosts:  []fleet.Host{{Addr: startTCPHost(t), Workers: 2}},
		Stderr: io.Discard,
	}, func(h *fleet.Hooks) {
		h.Chaos(7, fleet.ChaosProfile{})
		h.ReconnectBase = 10 * time.Millisecond
	})
	t.Cleanup(pool.Close)
	for _, name := range campaign.AllNames() {
		mismatches, err := golden.Check(name, "", golden.Exec{Dispatch: pool})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, m := range mismatches {
			t.Errorf("%s: %s", name, m)
		}
	}
}
