package fleet

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"sync"

	"pi2/internal/campaign"
)

// The journal makes a coordinator crash cost at most one in-flight cell
// per worker: every final RunRecord is appended as a length-prefixed,
// CRC-framed gob record and fsynced, and -resume replays the valid prefix
// (truncating a torn tail — a frame half-written when the process died),
// skips the journaled cells, and finishes only the remainder.
//
// Each entry is one frame (frame.go) whose payload is a self-contained
// gob journalEntry — a fresh gob stream per frame, because appends span
// processes: either a segment header — naming the (family, SHA-256(key),
// cell count) of the matrix whose records follow — or one cell's record.
// The key is the matrix identity campaign builds from the grid spec, the
// base seed and the shard count (the last two only when they are not the
// defaults 1 and 1, so older journals still match there). Keying segments
// on it, not on invocation order, means a resume under a different grid,
// -seed or -shards misses and re-runs every cell; it never replays another
// run's records. The host-local flags (-jobs, -workers, -hosts, watchdog,
// retries) are not in the key: they move no record.

type journalEntry struct {
	// Segment header fields; Family != "" marks a header.
	Family  string
	SpecSHA [sha256.Size]byte
	Cells   int
	// Record fields.
	Index int
	Rec   []byte // campaign.EncodeRecord bytes
}

// Journal appends campaign records to a file, implementing
// campaign.JournalSink. Append errors are reported once to errw and
// disable further writes — a broken journal must not take the campaign
// down with it, but it must not fail silently either.
type Journal struct {
	mu     sync.Mutex
	f      *os.File
	fw     frameWriter
	errw   io.Writer
	broken bool
	cur    journalEntry // current segment header (Family == "" before the first)
}

// OpenJournal opens (creating or appending to) a journal at path.
func OpenJournal(path string, errw io.Writer) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("fleet: open journal: %w", err)
	}
	return &Journal{f: f, fw: frameWriter{w: f}, errw: errw}, nil
}

// BeginSegment implements campaign.JournalSink. The header is written
// lazily with the segment's first record: a fully resumed segment emits no
// fresh records and appending its (duplicate) header would bloat repeated
// resumes for nothing.
func (j *Journal) BeginSegment(family string, key []byte, cells int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.cur = journalEntry{Family: family, SpecSHA: sha256.Sum256(key), Cells: cells}
}

// Record implements campaign.JournalSink: one frame per fresh final
// record, fsynced so the record survives a coordinator kill -9.
func (j *Journal) Record(rec campaign.RunRecord) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.broken {
		return
	}
	if j.cur.Family != "" {
		if err := j.appendLocked(j.cur); err != nil {
			j.fail(err)
			return
		}
		j.cur = journalEntry{}
	}
	b, err := campaign.EncodeRecord(&rec)
	if err != nil {
		j.fail(fmt.Errorf("encode record %d: %w", rec.Index, err))
		return
	}
	if err := j.appendLocked(journalEntry{Index: rec.Index, Rec: b}); err != nil {
		j.fail(err)
	}
}

func (j *Journal) fail(err error) {
	j.broken = true
	if j.errw != nil {
		fmt.Fprintf(j.errw, "fleet: journal disabled: %v\n", err)
	}
}

func (j *Journal) appendLocked(e journalEntry) error {
	if err := gob.NewEncoder(&j.fw).Encode(&e); err != nil {
		j.fw.discard()
		return err
	}
	if err := j.fw.flush(); err != nil {
		return err
	}
	return j.f.Sync()
}

// Close closes the journal file; every append is already synced.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}

// ResumeSet is a replayed journal, implementing campaign.ResumeSet.
type ResumeSet struct {
	segs map[string]map[int][]byte
}

// ReplayStats summarizes a LoadResume for operator output.
type ReplayStats struct {
	// Segments and Records count the valid frames replayed.
	Segments, Records int
	// Truncated is how many torn-tail bytes were cut from the file.
	Truncated int64
}

// LoadResume replays the journal at path: it reads the valid frame prefix,
// truncates any torn tail in place (so the next append starts at a frame
// boundary), and returns the completed-cell set. A missing file is an
// empty resume, not an error — a campaign that crashed before its first
// record resumes from scratch.
func LoadResume(path string) (*ResumeSet, ReplayStats, error) {
	rs := &ResumeSet{segs: make(map[string]map[int][]byte)}
	var stats ReplayStats
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if os.IsNotExist(err) {
		return rs, stats, nil
	}
	if err != nil {
		return nil, stats, fmt.Errorf("fleet: open journal: %w", err)
	}
	defer f.Close()

	fr := frameReader{r: bufio.NewReader(f)}
	var (
		valid int64 // offset past the last whole valid frame
		seg   string
		torn  bool
	)
	for {
		payload, err := fr.next()
		if err != nil {
			torn = err != io.EOF
			break
		}
		var e journalEntry
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&e); err != nil {
			torn = true
			break
		}
		if e.Family == "" && seg == "" {
			// A record before any header is a journal from a different
			// layout; treat it as tail damage.
			torn = true
			break
		}
		valid += 8 + int64(len(payload))
		if e.Family != "" {
			seg = segKey(e.Family, e.SpecSHA)
			if rs.segs[seg] == nil {
				rs.segs[seg] = make(map[int][]byte)
			}
			stats.Segments++
			continue
		}
		rs.segs[seg][e.Index] = e.Rec
		stats.Records++
	}
	if torn {
		end, err := f.Seek(0, io.SeekEnd)
		if err == nil {
			stats.Truncated = end - valid
		}
		if err := f.Truncate(valid); err != nil {
			return nil, stats, fmt.Errorf("fleet: truncate torn journal tail: %w", err)
		}
	}
	return rs, stats, nil
}

func segKey(family string, sha [sha256.Size]byte) string {
	return family + "\x00" + string(sha[:])
}

// Lookup implements campaign.ResumeSet. Only clean records resume: a cell
// that failed (crash budget, watchdog, panic) re-runs — deterministic
// failures reproduce identically, environmental ones get another chance.
func (rs *ResumeSet) Lookup(family string, key []byte, index int) (campaign.RunRecord, bool) {
	m := rs.segs[segKey(family, sha256.Sum256(key))]
	b, ok := m[index]
	if !ok {
		return campaign.RunRecord{}, false
	}
	rec, err := campaign.DecodeRecord(b)
	if err != nil || rec.Err != "" {
		return campaign.RunRecord{}, false
	}
	return rec, true
}

// Len reports how many completed cells the set holds (for tests and logs).
func (rs *ResumeSet) Len() int {
	n := 0
	for _, m := range rs.segs {
		n += len(m)
	}
	return n
}
