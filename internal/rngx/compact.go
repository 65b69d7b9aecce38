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
	seed, n := readVarint(rest)
	if n <= 0 {
		return fmt.Errorf("rngx: restore: bad seed")
	}
	rest = rest[n:]
	count, n := readUvarint(rest)
	if n <= 0 {
		return fmt.Errorf("rngx: restore: bad run count")
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
		arg, n := readVarint(rest)
		if n <= 0 {
			return fmt.Errorf("rngx: restore: bad arg in run %d", i)
		}
		rest = rest[n:]
		cnt, n := readUvarint(rest)
		if n <= 0 {
			return fmt.Errorf("rngx: restore: bad count in run %d", i)
		}
		rest = rest[n:]
		runs = append(runs, opRun{Kind: kind, Arg: arg, Count: int64(cnt)})
	}
	if len(rest) != 0 {
		return fmt.Errorf("rngx: restore: %d trailing bytes", len(rest))
	}
	return s.replay(seed, runs, maxDraws)
}

// readUvarint decodes a uvarint as binary.Uvarint does, but refuses any
// longer than the shortest form (one ending in a zero byte), so that a
// payload Restore accepts is byte for byte what Snapshot writes back.
func readUvarint(b []byte) (uint64, int) {
	v, n := binary.Uvarint(b)
	if n > 1 && b[n-1] == 0 {
		return 0, -n
	}
	return v, n
}

// readVarint is readUvarint for the zig-zag signed varints of
// binary.AppendVarint.
func readVarint(b []byte) (int64, int) {
	u, n := readUvarint(b)
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v, n
}
