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
// the cell had journaled bytes and whether they failed to decode.
type refusalProbe struct {
	rs                     *fleet.ResumeSet
	journaled, refused, ok int
}

func (p *refusalProbe) Lookup(family string, spec []byte, index int) (campaign.RunRecord, bool) {
	rec, ok := p.rs.Lookup(family, spec, index)
	if ok {
		p.ok++
	}
	if raw, found := p.rs.Raw(family, spec, index); found {
		p.journaled++
		if _, err := campaign.DecodeRecord(raw); err != nil && strings.Contains(err.Error(), "collector encoding") {
			p.refused++
		}
	}
	return rec, ok
}

// TestResumeV3JournalRerunsCollectorCells replays a journal written by a
// protocol-v3 binary, whose stats collectors crossed as nested gob:
// testdata/sweep-v3.journal.gz is `pi2bench -quick -timediv 400 -reps 2
// -journal f sweep`, gzipped, and every sweep record holds a *stats.Sample.
// Replay must keep every frame (the journal layout did not change), each
// such record must miss rather than be misread, and the resumed campaign
// re-runs those cells and prints exactly what a clean run prints.
func TestResumeV3JournalRerunsCollectorCells(t *testing.T) {
	gz, err := os.ReadFile(filepath.Join("testdata", "sweep-v3.journal.gz"))
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
	path := filepath.Join(t.TempDir(), "v3.journal")
	if err := os.WriteFile(path, journal.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	rs, stats, err := fleet.LoadResume(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != int64(journal.Len()) || stats.Truncated != 0 {
		t.Fatalf("replay truncated the v3 journal: stats %+v, size %v (err %v), want %d bytes kept", stats, fi.Size(), err, journal.Len())
	}
	if stats.Segments != 1 || stats.Records == 0 || rs.Len() != stats.Records {
		t.Fatalf("replay stats %+v with %d cell(s), want one segment of records", stats, rs.Len())
	}

	run := func(resume campaign.ResumeSet) string {
		sweep, _ := campaign.Lookup("sweep")
		o := campaign.Options{Grid: campaign.Grid{Quick: true, TimeDiv: 400, Reps: 2}, Jobs: 2, Resume: resume}
		var out bytes.Buffer
		if err := sweep.Run(&o, &out); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	clean := run(nil)
	probe := &refusalProbe{rs: rs}
	resumed := run(probe)
	if probe.journaled != stats.Records || probe.refused != stats.Records || probe.ok != 0 {
		t.Fatalf("of %d journaled cells the resumed sweep found %d, refused %d as old collector bytes and resumed %d; want all found and refused",
			stats.Records, probe.journaled, probe.refused, probe.ok)
	}
	if resumed != clean {
		t.Fatalf("resumed sweep printed\n%s\nclean sweep printed\n%s", resumed, clean)
	}
}
