package fleet

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"pi2/internal/campaign"
)

// fuzzSegments is the journal FuzzReadFrame damages: two segments, so a
// cut can fall between a header and its records.
var fuzzSegments = []struct {
	family string
	cells  int
}{{"a", 3}, {"b", 2}}

// validJournal writes fuzzSegments and returns the file's bytes and the
// records' EncodeRecord bytes in append order.
func validJournal(tb testing.TB) ([]byte, [][]byte) {
	path := filepath.Join(tb.TempDir(), "valid.journal")
	j, err := OpenJournal(path, io.Discard)
	if err != nil {
		tb.Fatal(err)
	}
	var recs [][]byte
	for _, s := range fuzzSegments {
		j.BeginSegment(s.family, []byte(s.family), s.cells)
		for i := 0; i < s.cells; i++ {
			rec := campaign.RunRecord{Name: s.family, Index: i, Seed: int64(7 * i), Result: float64(i) / 3}
			b, err := campaign.EncodeRecord(&rec)
			if err != nil {
				tb.Fatal(err)
			}
			recs = append(recs, b)
			j.Record(rec)
		}
	}
	if err := j.Close(); err != nil {
		tb.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return b, recs
}

// validStream is one worker connection's output: a handshake, a
// heartbeat, a record, an encoder reset after an unencodable result, and
// a record on the fresh stream. It returns the bytes and the messages a
// reader must decode from them.
func validStream(tb testing.TB) ([]byte, []msg) {
	var buf bytes.Buffer
	c := newWire(&buf)
	rec := campaign.RunRecord{Name: "x", Index: 1, Seed: 9, Params: map[string]any{"i": 1}, Result: 2.5}
	want := []msg{
		{Type: "hello", Proto: ProtoVersion, FP: "fp", Pid: 42},
		{Type: "ready", Tasks: 3},
		{Type: "hb", Index: 1},
		{Type: "record", Index: 1, Rec: rec},
		{Type: "record", Index: 2, Rec: campaign.RunRecord{Name: "x", Index: 2, Err: "failed"}},
	}
	for _, m := range want[:4] {
		if err := c.send(m); err != nil {
			tb.Fatal(err)
		}
	}
	bad := want[4]
	bad.Rec.Result = struct{ Unregistered int }{1}
	if err := c.send(bad); !errors.Is(err, errUnencodable) {
		tb.Fatalf("unregistered result: send = %v, want errUnencodable", err)
	}
	if err := c.send(want[4]); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes(), want
}

// damage returns valid cut to its first cut bytes, with bit flip-1
// inverted (flip 0 flips nothing), followed by tail.
func damage(valid []byte, cut, flip uint32, tail []byte) []byte {
	b := append([]byte(nil), valid[:min(int(cut), len(valid))]...)
	if flip > 0 && len(b) > 0 {
		bit := int(flip-1) % (8 * len(b))
		b[bit/8] ^= 1 << (bit % 8)
	}
	return append(b, tail...)
}

// FuzzReadFrame feeds the fleet's one frame reader damaged input through
// both of its consumers: journal replay (LoadResume) and a connection's
// message stream (wire.recv). Neither may panic or hang; each yields a
// prefix of what was written; and after a replay truncates a torn tail,
// the next append lands on a frame boundary.
func FuzzReadFrame(f *testing.F) {
	journal, recs := validJournal(f)
	stream, msgs := validStream(f)
	f.Add(^uint32(0), uint32(0), []byte(nil))          // intact
	f.Add(uint32(len(journal)-3), uint32(0), []byte{}) // torn last frame
	f.Add(^uint32(0), uint32(8*40+3), []byte(nil))     // one bit flipped
	f.Add(uint32(0), uint32(0), []byte("\x10\x00\x00\x00garbage"))
	f.Fuzz(func(t *testing.T, cut, flip uint32, tail []byte) {
		// Journal: the replayed records are the first k written, and a
		// fresh append after the replay reads back cleanly.
		path := filepath.Join(t.TempDir(), "run.journal")
		if err := os.WriteFile(path, damage(journal, cut, flip, tail), 0o644); err != nil {
			t.Fatal(err)
		}
		rs, stats, err := LoadResume(path)
		if err != nil {
			t.Fatal(err)
		}
		if rs.Len() != stats.Records || stats.Records > len(recs) {
			t.Fatalf("replayed %d records (%d distinct) of %d written", stats.Records, rs.Len(), len(recs))
		}
		k := 0
		for _, s := range fuzzSegments {
			for i := 0; i < s.cells && k < stats.Records; i++ {
				if got := rs.segs[segKey(s.family, sha256.Sum256([]byte(s.family)))][i]; !bytes.Equal(got, recs[k]) {
					t.Fatalf("replayed record %d is not the record written there", k)
				}
				k++
			}
		}
		j, err := OpenJournal(path, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		j.BeginSegment("after", nil, 1)
		j.Record(campaign.RunRecord{Name: "after"})
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if _, again, err := LoadResume(path); err != nil || again.Truncated != 0 || again.Records != stats.Records+1 {
			t.Fatalf("append after replay: stats %+v err %v; want %d records, none truncated", again, err, stats.Records+1)
		}

		// Wire: every decoded message is the one written at its place.
		c := newWire(struct {
			io.Reader
			io.Writer
		}{bytes.NewReader(damage(stream, cut, flip, tail)), io.Discard})
		for i := 0; ; i++ {
			m, err := c.recv()
			if err != nil {
				break
			}
			if i >= len(msgs) || !reflect.DeepEqual(*m, msgs[i]) {
				t.Fatalf("message %d decoded as %+v, not as written", i, *m)
			}
		}
	})
}
