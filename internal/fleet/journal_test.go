package fleet_test

import (
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"

	"pi2/internal/campaign"
	"pi2/internal/fleet"
)

// TestJournalRoundTrip writes a segment through the sink API and replays
// it: clean records resume, failed records and absent cells don't, and a
// different grid spec — same family — misses entirely.
func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	spec := []byte(`{"n":5}`)

	j, err := fleet.OpenJournal(path, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	j.BeginSegment("fleettest", spec, 5)
	for i := 0; i < 3; i++ {
		j.Record(campaign.RunRecord{
			Name: "fleettest", Index: i, Seed: int64(100 + i),
			Result: fleetRes{Index: i, Value: float64(i)},
		})
	}
	j.Record(campaign.RunRecord{Name: "fleettest", Index: 3, Err: "watchdog: killed"})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	rs, stats, err := fleet.LoadResume(path)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Segments != 1 || stats.Records != 4 || stats.Truncated != 0 {
		t.Fatalf("stats = %+v, want 1 segment, 4 records, 0 truncated", stats)
	}
	for i := 0; i < 3; i++ {
		rec, ok := rs.Lookup("fleettest", spec, i)
		if !ok {
			t.Fatalf("cell %d did not resume", i)
		}
		if rec.Seed != int64(100+i) {
			t.Errorf("cell %d: seed %d, want %d", i, rec.Seed, 100+i)
		}
		if res, _ := rec.Result.(fleetRes); res.Index != i {
			t.Errorf("cell %d: result %+v", i, rec.Result)
		}
	}
	if _, ok := rs.Lookup("fleettest", spec, 3); ok {
		t.Error("failed cell resumed; it must re-run")
	}
	if _, ok := rs.Lookup("fleettest", spec, 4); ok {
		t.Error("never-journaled cell resumed")
	}
	if _, ok := rs.Lookup("fleettest", []byte(`{"n":6}`), 0); ok {
		t.Error("lookup with a different spec hit the wrong segment")
	}
	if _, ok := rs.Lookup("other", spec, 0); ok {
		t.Error("lookup with a different family hit the wrong segment")
	}
}

// TestJournalTornTail simulates a coordinator dying mid-append: garbage
// past the last whole frame must be truncated on replay — in the file, not
// just in memory — so the next append starts at a frame boundary.
func TestJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	spec := []byte("spec")

	j, err := fleet.OpenJournal(path, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	j.BeginSegment("fleettest", spec, 2)
	j.Record(campaign.RunRecord{Name: "fleettest", Index: 0, Result: fleetRes{}})
	j.Record(campaign.RunRecord{Name: "fleettest", Index: 1, Result: fleetRes{Index: 1}})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	clean, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("torn half-frame"))
	f.Close()

	rs, stats, err := fleet.LoadResume(path)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Truncated == 0 {
		t.Fatal("torn tail not detected")
	}
	if rs.Len() != 2 {
		t.Fatalf("resumed %d cells, want 2", rs.Len())
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != clean.Size() {
		t.Fatalf("file is %d bytes after truncation, want %d", after.Size(), clean.Size())
	}
	// A second replay of the repaired file is clean.
	if _, stats, err = fleet.LoadResume(path); err != nil || stats.Truncated != 0 {
		t.Fatalf("repaired journal still torn: stats=%+v err=%v", stats, err)
	}
}

// TestResumeSkipsCompletedCells closes the loop through the campaign
// engine: a journaled run, then a resumed run of the same grid, must
// re-execute only the unjournaled cells and still emit all of them.
func TestResumeSkipsCompletedCells(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	spec := []byte("resume-grid")

	var runs atomic.Int32
	tasks := make([]campaign.Task, 5)
	for i := range tasks {
		i := i
		tasks[i] = campaign.Task{
			Name: "resumetest", SeedIndex: i,
			Run: func(tc *campaign.TaskCtx) any {
				runs.Add(1)
				return fleetRes{Index: i, Value: float64(tc.Seed % 97)}
			},
		}
	}
	opt := campaign.ExecOptions{Jobs: 2, BaseSeed: 1, Family: "resumetest", Spec: spec}

	j, err := fleet.OpenJournal(path, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	opt.Journal = j
	first := stripTiming(campaign.Execute(tasks, opt))
	j.Close()
	if got := runs.Load(); got != 5 {
		t.Fatalf("first run executed %d cells, want 5", got)
	}

	// Kill the journal for cells 1 and 3 by rewriting it without them,
	// simulating a coordinator killed before they finished.
	rs, _, err := fleet.LoadResume(path)
	if err != nil {
		t.Fatal(err)
	}
	partial := filepath.Join(t.TempDir(), "partial.journal")
	pj, err := fleet.OpenJournal(partial, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	pj.BeginSegment("resumetest", spec, 5)
	for _, i := range []int{0, 2, 4} {
		rec, ok := rs.Lookup("resumetest", spec, i)
		if !ok {
			t.Fatalf("cell %d missing from full journal", i)
		}
		pj.Record(rec)
	}
	pj.Close()

	prs, _, err := fleet.LoadResume(partial)
	if err != nil {
		t.Fatal(err)
	}
	runs.Store(0)
	opt.Journal = nil
	opt.Resume = prs
	second := stripTiming(campaign.Execute(tasks, opt))
	if got := runs.Load(); got != 2 {
		t.Fatalf("resumed run executed %d cells, want 2 (cells 1 and 3)", got)
	}
	sameRecords(t, first, second, true)
}

// TestJournalOversizedLengthIsTorn ends a journal with a frame header that
// claims 200 MiB, as a bit-flipped length in a torn tail would: replay must
// cut the header as torn without allocating the claimed length.
func TestJournalOversizedLengthIsTorn(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	j, err := fleet.OpenJournal(path, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	j.BeginSegment("fleettest", []byte("spec"), 1)
	j.Record(campaign.RunRecord{Name: "fleettest", Index: 0, Result: fleetRes{}})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:], 200<<20)
	f.Write(hdr[:])
	f.Close()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rs, stats, err := fleet.LoadResume(path)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Truncated != int64(len(hdr)) || rs.Len() != 1 {
		t.Fatalf("stats = %+v with %d cell(s); want the %d-byte header cut and 1 cell kept", stats, rs.Len(), len(hdr))
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Errorf("replay allocated %d bytes for a 200 MiB claim followed by EOF", d)
	}
}
