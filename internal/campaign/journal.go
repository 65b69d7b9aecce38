package campaign

import (
	"bytes"
	"encoding/base64"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"time"

	"deepheal/internal/faultinject"
)

// journalName is the on-disk journal file inside a campaign directory.
const journalName = "journal.jsonl"

// record is one completed point, one JSON object per line. The result
// payload is gob-encoded (base64 in the JSON envelope): gob round-trips
// float64 bit-exactly and handles the ±Inf values some wearout traces
// legitimately contain, which plain JSON cannot encode. CRC is an IEEE
// CRC-32 of the raw gob bytes, held through a pointer so presence survives
// the round trip: a payload whose checksum is legitimately zero still
// serialises as "crc":0 instead of disappearing under omitempty and being
// accepted unverified on resume. Records written before the field existed
// decode to a nil CRC and are accepted as-is (legacy).
type record struct {
	Key    string  `json:"key"`
	Hash   string  `json:"hash"`
	WallMS float64 `json:"wall_ms"`
	Gob    string  `json:"gob"`
	CRC    *uint32 `json:"crc,omitempty"`
}

// JournalOptions tunes how a journal file is opened.
type JournalOptions struct {
	// Name is the journal file name inside the campaign directory; empty
	// means the default journal.jsonl. Distributed shards use
	// shards/<worker>.jsonl so many writers never share a file.
	Name string
	// Sync fsyncs the journal file after every appended record, so a point
	// acknowledged as journaled survives power loss. Default on for
	// distributed shards (a merged shard must not contain ghosts), opt-in
	// for plain local resume where a lost tail merely recomputes.
	Sync bool
}

// Journal persists completed campaign points in a directory, append-only,
// keyed by content hash. Two corruption modes are distinguished on reload:
// a half-written trailing line (a killed campaign tore the final append) is
// expected, silently dropped and truncated away so later appends start on a
// fresh line, while a damaged record in the middle of the file — an
// unparseable line or a CRC mismatch — is skipped, counted in Corrupted and
// left for the caller to log. Either way the journal stays safe to resume
// from: a skipped point simply recomputes.
type Journal struct {
	path string
	sync bool

	mu        sync.Mutex
	f         *os.File
	entries   map[string]*record // hash → persisted record
	corrupted int
}

// OpenJournal opens (creating if needed) the default campaign journal in
// dir and indexes any points a previous run completed.
func OpenJournal(dir string) (*Journal, error) {
	return OpenJournalWith(dir, JournalOptions{})
}

// OpenJournalWith opens a journal file in dir with explicit options.
func OpenJournalWith(dir string, opts JournalOptions) (*Journal, error) {
	name := opts.Name
	if name == "" {
		name = journalName
	}
	path := filepath.Join(dir, name)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("campaign: journal dir: %w", err)
	}
	j := &Journal{path: path, sync: opts.Sync, entries: make(map[string]*record)}
	if data, err := os.ReadFile(path); err == nil {
		recs, corrupted, intact := parseJournal(data)
		j.corrupted = corrupted
		for i := range recs {
			if recs[i].Hash != "" {
				rc := recs[i]
				j.entries[rc.Hash] = &rc
			}
		}
		if intact < int64(len(data)) {
			// Torn tail: truncate it away, otherwise the next append would
			// fuse onto the half-written line and corrupt a *good* record.
			if err := os.Truncate(path, intact); err != nil {
				return nil, fmt.Errorf("campaign: journal truncate torn tail: %w", err)
			}
		}
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("campaign: journal read: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("campaign: journal open: %w", err)
	}
	j.f = f
	return j, nil
}

// parseJournal scans one journal file's bytes: the intact records in file
// order, the damaged-record count, and the byte offset just past the last
// complete line (anything beyond it is a torn tail — an append cut short by
// a kill — which is expected and not counted as damage). A complete line
// that fails to parse, or whose CRC does not match its payload, counts as
// corrupted; a record with no CRC field at all is legacy and accepted
// unverified.
func parseJournal(data []byte) (recs []record, corrupted int, intact int64) {
	for off := 0; off < len(data); {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			// No terminating newline: torn tail, not damage.
			break
		}
		line := data[off : off+nl]
		off += nl + 1
		intact = int64(off)
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(line, &rec); err != nil {
			corrupted++
			continue
		}
		if rec.CRC != nil {
			raw, err := base64.StdEncoding.DecodeString(rec.Gob)
			if err != nil || crc32.ChecksumIEEE(raw) != *rec.CRC {
				corrupted++
				continue
			}
		}
		recs = append(recs, rec)
	}
	return recs, corrupted, intact
}

// Corrupted reports how many damaged records (excluding an expected torn
// tail) were skipped when the journal was opened.
func (j *Journal) Corrupted() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.corrupted
}

// Restorable returns how many completed points the journal currently holds.
func (j *Journal) Restorable() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.entries)
}

// Has reports whether the journal holds a result for hash.
func (j *Journal) Has(hash string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	_, ok := j.entries[hash]
	return ok
}

// Close releases the journal file handle.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// lookup decodes the persisted result for hash into a value allocated by
// newFn. ok is false when the hash is absent; a decode failure returns the
// error (the caller falls back to recomputing).
func (j *Journal) lookup(hash string, newFn func() any) (value any, ok bool, err error) {
	j.mu.Lock()
	rec := j.entries[hash]
	j.mu.Unlock()
	if rec == nil {
		return nil, false, nil
	}
	raw, err := base64.StdEncoding.DecodeString(rec.Gob)
	if err != nil {
		return nil, false, fmt.Errorf("campaign: journal %s: %w", rec.Key, err)
	}
	v := newFn()
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(v); err != nil {
		return nil, false, fmt.Errorf("campaign: journal %s: %w", rec.Key, err)
	}
	return v, true, nil
}

// Record appends a completed point and reports whether the result was
// actually persisted. Results gob cannot encode are skipped without error
// (the point simply re-runs on resume); an I/O failure — a full disk, a
// closed journal, a failed fsync — is returned so the caller can log the
// cause instead of silently losing durability.
func (j *Journal) Record(key, hash string, value any, wall time.Duration) (bool, error) {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(value); err != nil {
		return false, nil
	}
	crc := crc32.ChecksumIEEE(payload.Bytes())
	rec := record{
		Key:    key,
		Hash:   hash,
		WallMS: float64(wall) / float64(time.Millisecond),
		Gob:    base64.StdEncoding.EncodeToString(payload.Bytes()),
		CRC:    &crc,
	}
	disk := rec
	if faultinject.Hit(faultinject.SiteJournalCorrupt, key) {
		// Damage only what reaches disk: this run keeps serving the good
		// in-memory entry, so the corruption is discovered — and must be
		// survived — by the next run's resume.
		raw := append([]byte(nil), payload.Bytes()...)
		raw[len(raw)/2] ^= 0xff
		disk.Gob = base64.StdEncoding.EncodeToString(raw)
	}
	line, err := json.Marshal(disk)
	if err != nil {
		return false, nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.append(line); err != nil {
		return false, fmt.Errorf("campaign: journal %s: %w", key, err)
	}
	j.entries[hash] = &rec
	metPointsJournaled.Inc()
	return true, nil
}

// append writes one marshalled record line (plus newline) to the journal
// file, honouring the Sync option. Callers hold j.mu.
func (j *Journal) append(line []byte) error {
	if j.f == nil {
		return fmt.Errorf("journal is closed")
	}
	if _, err := j.f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("append: %w", err)
	}
	if j.sync {
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("sync: %w", err)
		}
	}
	return nil
}

// AbsorbStats reports what one shard contributed to a merge.
type AbsorbStats struct {
	// Absorbed counts intact records appended to the merged journal.
	Absorbed int
	// Duplicates counts intact records whose hash the merged journal
	// already held — the cross-shard shared result cache at work.
	Duplicates int
	// Corrupted counts damaged records skipped (unparseable complete lines
	// or CRC mismatches).
	Corrupted int
	// TornTail reports that the shard ended mid-record — a worker died
	// while appending. The torn record is skipped; its point recomputes.
	TornTail bool
}

// AbsorbFile merges the journal file at path into j: every intact record
// whose hash j does not already hold is re-appended to j's own file, payload
// bytes preserved exactly, and becomes restorable. Damaged records and a
// torn tail are tolerated exactly as OpenJournal tolerates them — a shard
// torn by a dying worker merges cleanly, losing only the torn record. This
// is the shard-merge primitive of the distributed executor.
func (j *Journal) AbsorbFile(path string) (AbsorbStats, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return AbsorbStats{}, fmt.Errorf("campaign: absorb %s: %w", path, err)
	}
	recs, corrupted, intact := parseJournal(data)
	st := AbsorbStats{Corrupted: corrupted, TornTail: intact < int64(len(data))}
	j.mu.Lock()
	defer j.mu.Unlock()
	for i := range recs {
		rec := recs[i]
		if rec.Hash == "" {
			continue
		}
		if _, ok := j.entries[rec.Hash]; ok {
			st.Duplicates++
			continue
		}
		line, err := json.Marshal(rec)
		if err != nil {
			st.Corrupted++
			continue
		}
		if err := j.append(line); err != nil {
			return st, fmt.Errorf("campaign: absorb %s: %w", path, err)
		}
		rc := rec
		j.entries[rec.Hash] = &rc
		st.Absorbed++
	}
	return st, nil
}

// WriteStats saves the per-point execution statistics of a finished (or
// interrupted) campaign as JSON — the machine-readable artefact CI uploads
// next to the journal.
func WriteStats(path string, outcomes []Outcome) error {
	data, err := json.MarshalIndent(StatsFromOutcomes(outcomes), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
