package fleet_test

import (
	"bytes"
	"compress/gzip"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pi2/internal/campaign"
	"pi2/internal/fleet"
)

// refusalProbe wraps a replayed journal and counts, per Lookup, whether
// the cell had journaled bytes and whether they failed to decode with an
// error that contains reason.
type refusalProbe struct {
	rs                     *fleet.ResumeSet
	reason                 string
	journaled, refused, ok int
}

func (p *refusalProbe) Lookup(family string, spec []byte, index int) (campaign.RunRecord, bool) {
	rec, ok := p.rs.Lookup(family, spec, index)
	if ok {
		p.ok++
	}
	if raw, found := p.rs.Raw(family, spec, index); found {
		p.journaled++
		if _, err := campaign.DecodeRecord(raw); err != nil && strings.Contains(err.Error(), p.reason) {
			p.refused++
		}
	}
	return rec, ok
}

// replayOldJournal replays testdata/name, a gzipped journal an older build
// wrote, and checks that replay kept every frame: the journal layout did
// not change, only the records inside it.
func replayOldJournal(t *testing.T, name string) (*fleet.ResumeSet, fleet.ReplayStats) {
	t.Helper()
	gz, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		t.Fatal(err)
	}
	var journal bytes.Buffer
	if _, err := journal.ReadFrom(zr); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "old.journal")
	if err := os.WriteFile(path, journal.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	rs, stats, err := fleet.LoadResume(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != int64(journal.Len()) || stats.Truncated != 0 {
		t.Fatalf("replay truncated %s: stats %+v, size %v (err %v), want %d bytes kept", name, stats, fi.Size(), err, journal.Len())
	}
	if stats.Segments != 1 || stats.Records == 0 || rs.Len() != stats.Records {
		t.Fatalf("replay stats %+v with %d cell(s), want one segment of records", stats, rs.Len())
	}
	return rs, stats
}

// rerunsEveryCell runs family on grid clean and resumed from rs through a
// refusalProbe for reason. Every journaled cell must be found, refused for
// reason and re-run, and the resumed campaign must print exactly what the
// clean one prints.
func rerunsEveryCell(t *testing.T, rs *fleet.ResumeSet, records int, family string, grid campaign.Grid, reason string) {
	t.Helper()
	run := func(resume campaign.ResumeSet) string {
		exp, _ := campaign.Lookup(family)
		o := campaign.Options{Grid: grid, ExecOptions: campaign.ExecOptions{Jobs: 2, Resume: resume}}
		var out bytes.Buffer
		if err := exp.Run(&o, &out); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	clean := run(nil)
	probe := &refusalProbe{rs: rs, reason: reason}
	resumed := run(probe)
	if probe.journaled != records || probe.refused != records || probe.ok != 0 {
		t.Fatalf("of %d journaled cells the resumed %s found %d, refused %d for %q and resumed %d; want all found and refused",
			records, family, probe.journaled, probe.refused, reason, probe.ok)
	}
	if resumed != clean {
		t.Fatalf("resumed %s printed\n%s\nclean %s printed\n%s", family, resumed, family, clean)
	}
}

// TestResumeV3JournalRerunsCollectorCells replays a journal written by a
// protocol-v3 binary, whose stats collectors crossed as nested gob:
// testdata/sweep-v3.journal.gz is `pi2bench -quick -timediv 400 -reps 2
// -journal f sweep`, gzipped, and every sweep record holds a *stats.Sample.
// Replay must keep every frame (the journal layout did not change), each
// such record must miss rather than be misread, and the resumed campaign
// re-runs those cells and prints exactly what a clean run prints.
func TestResumeV3JournalRerunsCollectorCells(t *testing.T) {
	rs, stats := replayOldJournal(t, "sweep-v3.journal.gz")
	rerunsEveryCell(t, rs, stats.Records, "sweep", campaign.Grid{Quick: true, TimeDiv: 400, Reps: 2}, "collector encoding")
}

// TestResumeSampleJournalRerunsCells replays a journal written by a build
// whose simulations still collected into stats.Sample:
// testdata/fig11-sample.journal.gz is `pi2bench -quick -timediv 400
// -journal f fig11`, gzipped, and every record's Result holds a *Result
// whose collectors are *stats.Sample. That type is no longer a wire type,
// so each record must fail DecodeRecord, naming it, and its cell must
// re-run: a replay would print the old exact-sample percentiles, where a
// clean run prints the histogram's.
func TestResumeSampleJournalRerunsCells(t *testing.T) {
	rs, stats := replayOldJournal(t, "fig11-sample.journal.gz")
	rerunsEveryCell(t, rs, stats.Records, "fig11", campaign.Grid{Quick: true, TimeDiv: 400, Reps: 1}, "stats.Sample")
}
