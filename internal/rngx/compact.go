package rngx

import (
	"encoding/binary"
	"fmt"
)

// snapshotMagic leads a serialised stream state.
const snapshotMagic = 'R'

// Snapshot serialises the stream state in a varint framing: one byte of
// magic, the seed, then (kind, arg, count) per journal run. For the regular
// draw patterns simulation components produce (one identical draw per step)
// this stays a few bytes regardless of stream age. A restored Source
// continues the exact sequence the original would have produced.
func (s *Source) Snapshot() []byte {
	buf := make([]byte, 0, 1+binary.MaxVarintLen64*(2+3*len(s.journal)))
	buf = append(buf, snapshotMagic)
	buf = binary.AppendVarint(buf, s.seed)
	buf = binary.AppendUvarint(buf, uint64(len(s.journal)))
	for _, r := range s.journal {
		buf = append(buf, r.Kind)
		buf = binary.AppendVarint(buf, r.Arg)
		buf = binary.AppendUvarint(buf, uint64(r.Count))
	}
	return buf
}

// Restore moves the receiver to the stream position of a Snapshot payload
// by replaying the recorded draws (see replay). The caller bounds the replay
// with maxDraws, the most draws the stream can have made by the resume
// point; a journal claiming more is refused before any draw is replayed.
func (s *Source) Restore(data []byte, maxDraws int64) error {
	if len(data) == 0 || data[0] != snapshotMagic {
		return fmt.Errorf("rngx: restore: bad magic")
	}
	rest := data[1:]
	seed, n := binary.Varint(rest)
	if n <= 0 {
		return fmt.Errorf("rngx: restore: truncated seed")
	}
	rest = rest[n:]
	count, n := binary.Uvarint(rest)
	if n <= 0 {
		return fmt.Errorf("rngx: restore: truncated run count")
	}
	rest = rest[n:]
	// Each run occupies at least three bytes (kind plus two varints), so a
	// count beyond len/3 means a corrupt header; reject before allocating.
	if count > uint64(len(rest))/3 {
		return fmt.Errorf("rngx: restore: %d runs exceeds payload", count)
	}
	runs := make([]opRun, 0, count)
	for i := uint64(0); i < count; i++ {
		if len(rest) == 0 {
			return fmt.Errorf("rngx: restore: truncated run %d", i)
		}
		kind := rest[0]
		rest = rest[1:]
		arg, n := binary.Varint(rest)
		if n <= 0 {
			return fmt.Errorf("rngx: restore: truncated arg in run %d", i)
		}
		rest = rest[n:]
		cnt, n := binary.Uvarint(rest)
		if n <= 0 {
			return fmt.Errorf("rngx: restore: truncated count in run %d", i)
		}
		rest = rest[n:]
		runs = append(runs, opRun{Kind: kind, Arg: arg, Count: int64(cnt)})
	}
	if len(rest) != 0 {
		return fmt.Errorf("rngx: restore: %d trailing bytes", len(rest))
	}
	return s.replay(seed, runs, maxDraws)
}
