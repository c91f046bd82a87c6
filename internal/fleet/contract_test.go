package fleet_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"pi2/internal/campaign"
	"pi2/internal/fleet"
	"pi2/internal/golden"
)

// contractGrid is the scale of every contract run: pi2bench -quick -timediv 20.
var contractGrid = campaign.Grid{Quick: true, TimeDiv: 20}

// campaignOut is what a campaign shows: the tables it prints and its
// records, the timing fields dropped, as a sorted list of JSON lines (so
// the order cells complete in does not count).
type campaignOut struct{ tables, records string }

// runCampaign runs the named experiments one after another through one
// Options, as pi2bench does, and fails the test if any cell fails.
func runCampaign(t *testing.T, g campaign.Grid, ex campaign.ExecOptions, names ...string) campaignOut {
	t.Helper()
	var recs []string
	own := ex.Progress
	ex.Progress = func(done, total int, rec campaign.RunRecord) { // calls are serialized
		rec.WallMs, rec.EventsPerSec = 0, 0
		b, err := json.Marshal(rec)
		if err != nil {
			t.Errorf("%s[%d]: %v", rec.Name, rec.Index, err)
		}
		recs = append(recs, string(b))
		if own != nil {
			own(done, total, rec)
		}
	}
	o := campaign.Options{Grid: g, ExecOptions: ex}
	var tables bytes.Buffer
	for _, name := range names {
		exp, _ := campaign.Lookup(name)
		if err := exp.Run(&o, &tables); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	sort.Strings(recs)
	return campaignOut{tables.String(), strings.Join(recs, "\n")}
}

// sameOut reports the first line where got's tables or records differ.
func sameOut(t *testing.T, what string, want, got campaignOut) {
	t.Helper()
	line := func(lines []string, i int) string {
		if i < len(lines) {
			return lines[i]
		}
		return "(end)"
	}
	for _, p := range [][3]string{{"tables", want.tables, got.tables}, {"records", want.records, got.records}} {
		w, g := strings.Split(p[1], "\n"), strings.Split(p[2], "\n")
		for i := 0; i < max(len(w), len(g)); i++ {
			if line(w, i) != line(g, i) {
				t.Errorf("%s: %s differ at line %d:\nwant %q\ngot  %q", what, p[0], i+1, line(w, i), line(g, i))
				break
			}
		}
	}
}

// setFields names the fields of ex that are not zero.
func setFields(ex campaign.ExecOptions) []string {
	var out []string
	v := reflect.ValueOf(ex)
	for i := 0; i < v.NumField(); i++ {
		if !v.Field(i).IsZero() {
			out = append(out, v.Type().Field(i).Name)
		}
	}
	return out
}

// countingResume counts the cells a resume set hands back.
type countingResume struct {
	rs   campaign.ResumeSet
	hits int
}

func (c *countingResume) Lookup(family string, key []byte, index int) (campaign.RunRecord, bool) {
	rec, ok := c.rs.Lookup(family, key, index)
	if ok {
		c.hits++
	}
	return rec, ok
}

func openJournal(t *testing.T, path string) *fleet.Journal {
	t.Helper()
	j, err := fleet.OpenJournal(path, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// TestExecKnobContract holds every campaign.ExecOptions field to its class
// in fleet.ExecFields.
// A host-local knob must leave every table and record of the heavy, chaos,
// interop and sweep grids as a serial in-process run prints them, with and
// without -ff, and every golden must match through a fleet. An identity
// knob must make a resume under another value miss. And a sharded campaign
// must repeat byte for byte. It stands in for the pi2bench smoke and
// "run twice, diff" steps of CI.
func TestExecKnobContract(t *testing.T) {
	if testing.Short() {
		t.Skip("runs grids")
	}
	// Under the race detector, with atomic coverage as CI runs it, a cell
	// runs some 300 times slower. The race build keeps what can race: the
	// host-local knobs on heavy, and the sharded repeats under -ff, where
	// fast-forward epochs run between the domains' parked windows.
	// TestGoldensThroughChaos races the goldens through a fleet.
	grids, ffs := []string{"heavy", "chaos", "interop", "sweep"}, []bool{false, true}
	sharded, shardFFs := []string{"heavy", "chaos", "sweep"}, ffs
	if raceEnabled {
		grids, ffs, sharded, shardFFs = grids[:1], ffs[:1], sharded[:2], shardFFs[1:]
	}
	covered := map[string]string{} // field -> the class of the case that sets it
	stdio := newTestPool(t, 2, nil)

	t.Run("host-local", func(t *testing.T) {
		tcp := fleet.NewPool(fleet.Config{Hosts: []fleet.Host{{Addr: startTCPHost(t), Workers: 2}}, Stderr: io.Discard})
		t.Cleanup(tcp.Close)
		for _, ff := range ffs {
			g := contractGrid
			g.FF = ff
			want := runCampaign(t, g, campaign.ExecOptions{Jobs: 1}, grids...)
			path := filepath.Join(t.TempDir(), "campaign.journal")
			var journal *fleet.Journal
			var resumed *countingResume
			var replayed int
			for _, c := range []struct {
				name  string
				ex    func() campaign.ExecOptions
				check func()
			}{
				{name: "jobs 4", ex: func() campaign.ExecOptions { return campaign.ExecOptions{Jobs: 4} }},
				{name: "stdio fleet", ex: func() campaign.ExecOptions { return campaign.ExecOptions{Dispatch: stdio} }},
				{name: "tcp fleet", ex: func() campaign.ExecOptions { return campaign.ExecOptions{Dispatch: tcp} }},
				{name: "watchdog and retries", ex: func() campaign.ExecOptions {
					return campaign.ExecOptions{Jobs: 2, Retries: 1, RetryBackoff: time.Millisecond,
						Watchdog: campaign.Watchdog{Timeout: 10 * time.Minute, Stall: 10 * time.Minute}}
				}},
				{name: "collector and progress", ex: func() campaign.ExecOptions {
					return campaign.ExecOptions{Jobs: 2, Collector: campaign.NewStreamingCollector(io.Discard),
						Progress: func(int, int, campaign.RunRecord) {}, FastForward: true}
				}},
				{name: "journal", ex: func() campaign.ExecOptions {
					journal = openJournal(t, path)
					return campaign.ExecOptions{Jobs: 2, Journal: journal}
				}},
				// A coordinator killed half-way: the journal ends in a torn
				// frame, and the resumed run appends to it.
				{name: "resume half-written journal", ex: func() campaign.ExecOptions {
					journal.Close()
					fi, err := os.Stat(path)
					if err != nil {
						t.Fatal(err)
					}
					if err := os.Truncate(path, fi.Size()/2); err != nil {
						t.Fatal(err)
					}
					rs, stats, err := fleet.LoadResume(path)
					if err != nil || stats.Records == 0 || stats.Truncated == 0 {
						t.Fatalf("half-written journal replayed %+v (err %v), want records and a torn tail", stats, err)
					}
					resumed, replayed = &countingResume{rs: rs}, stats.Records
					journal = openJournal(t, path)
					return campaign.ExecOptions{Jobs: 2, Journal: journal, Resume: resumed}
				}, check: func() {
					journal.Close()
					if resumed.hits != replayed {
						t.Errorf("ff=%v: the resumed campaign took %d of the journal's %d records", ff, resumed.hits, replayed)
					}
				}},
			} {
				ex := c.ex()
				for _, f := range setFields(ex) {
					covered[f] = fleet.HostLocal
				}
				sameOut(t, fmt.Sprintf("%s, ff=%v", c.name, ff), want, runCampaign(t, g, ex, grids...))
				if c.check != nil {
					c.check()
				}
			}
		}
	})

	t.Run("goldens through a fleet", func(t *testing.T) {
		if raceEnabled {
			t.Skip("TestGoldensThroughChaos races the goldens through a fleet")
		}
		for _, name := range campaign.AllNames() {
			mismatches, err := golden.Check(name, "", golden.Exec{Dispatch: stdio})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for _, m := range mismatches {
				t.Errorf("golden %s through the stdio fleet: %s", name, m)
			}
		}
	})

	// An identity knob moves records, so a resume under another value must
	// miss every cell and print what a clean run prints. Chaos honours
	// -shards; a journal written at the defaults matches (0 means 1).
	t.Run("identity", func(t *testing.T) {
		if raceEnabled {
			t.Skip("resume keys race nothing")
		}
		for _, c := range []struct {
			name            string
			journal, resume campaign.ExecOptions
			hits            bool
		}{
			{"defaults", campaign.ExecOptions{}, campaign.ExecOptions{BaseSeed: 1, Shards: 1}, true},
			{"BaseSeed", campaign.ExecOptions{BaseSeed: 1}, campaign.ExecOptions{BaseSeed: 2}, false},
			{"Shards", campaign.ExecOptions{Shards: 4}, campaign.ExecOptions{Shards: 1}, false},
		} {
			jv, rv, typ := reflect.ValueOf(c.journal), reflect.ValueOf(c.resume), reflect.TypeOf(c.journal)
			for i := 0; i < typ.NumField(); i++ {
				if !reflect.DeepEqual(jv.Field(i).Interface(), rv.Field(i).Interface()) {
					covered[typ.Field(i).Name] = fleet.Identity
				}
			}
			path := filepath.Join(t.TempDir(), "identity.journal")
			j := openJournal(t, path)
			ex := c.journal
			ex.Jobs, ex.Journal = 2, j
			journaled := runCampaign(t, contractGrid, ex, "chaos")
			j.Close()
			rs, stats, err := fleet.LoadResume(path)
			if err != nil {
				t.Fatal(err)
			}
			ex = c.resume
			ex.Jobs = 2
			clean := runCampaign(t, contractGrid, ex, "chaos")
			probe := &countingResume{rs: rs}
			ex.Resume = probe
			sameOut(t, c.name+" resume", clean, runCampaign(t, contractGrid, ex, "chaos"))
			switch {
			case c.hits && (probe.hits != stats.Records || journaled != clean):
				t.Errorf("%s: the resume took %d of %d journaled records, want all", c.name, probe.hits, stats.Records)
			case !c.hits && probe.hits != 0:
				t.Errorf("%s: a resume under another value took %d of %d journaled records, want none", c.name, probe.hits, stats.Records)
			case !c.hits && journaled == clean:
				t.Errorf("%s: the two values print the same chaos grid, so the case shows nothing", c.name)
			}
		}
	})

	// A fixed shard count is deterministic too, with and without -ff, on
	// every driver that honours it.
	t.Run("shards 4 repeats", func(t *testing.T) {
		for _, ff := range shardFFs {
			g := contractGrid
			g.FF = ff
			ex := campaign.ExecOptions{Jobs: 2, Shards: 4}
			first := runCampaign(t, g, ex, sharded...)
			sameOut(t, fmt.Sprintf("shards 4 again, ff=%v", ff), first, runCampaign(t, g, ex, sharded...))
		}
	})

	if raceEnabled {
		return
	}
	for name, f := range fleet.ExecFields {
		if f.Class != fleet.PerMatrix && covered[name] != f.Class {
			t.Errorf("ExecOptions.%s: no %s case sets it", name, f.Class)
		}
	}
}
