package fleet_test

import (
	"slices"
	"strings"
	"testing"

	"pi2/internal/fleet"
)

func TestParseHosts(t *testing.T) {
	inv := `
# production fleet
10.0.0.7:9000  workers=8
10.0.0.9:9000  workers=2   # trailing comment
10.0.0.11:9000
`
	hosts, err := fleet.ParseHosts(strings.NewReader(inv))
	if err != nil {
		t.Fatal(err)
	}
	want := []fleet.Host{{"10.0.0.7:9000", 8}, {"10.0.0.9:9000", 2}, {"10.0.0.11:9000", 1}}
	if !slices.Equal(hosts, want) {
		t.Errorf("parsed %+v, want %+v (workers defaults to 1)", hosts, want)
	}
}

// TestParseHostsErrors includes the per-host shards=/ff= overrides that
// earlier inventories allowed: every host now runs the coordinator's
// composition, so they are unknown keys.
func TestParseHostsErrors(t *testing.T) {
	cases := map[string]struct{ inv, want string }{
		"empty":       {"# only comments\n\n", "empty"},
		"bad pair":    {"h:1 workers\n", "not key=value"},
		"bad workers": {"h:1 workers=0\n", "positive integer"},
		"shards":      {"h:1 workers=2 shards=4\n", `unknown key "shards"`},
		"ff":          {"h:1 ff=true\n", `unknown key "ff"`},
		"unknown key": {"h:1 retries=3\n", `unknown key "retries"`},
	}
	for name, c := range cases {
		_, err := fleet.ParseHosts(strings.NewReader(c.inv))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: inventory %q: err = %v, want one naming %q", name, c.inv, err, c.want)
		}
	}
}
