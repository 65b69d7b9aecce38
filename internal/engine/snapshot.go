package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
)

// SnapshotVersion is the current system-snapshot format version. Decoding
// rejects snapshots from a different version rather than guessing. Version
// 2 switched the rngx journal inside component payloads to run-length
// encoding; version 3 dropped the DEFLATE stream around the body and the
// gob payloads inside it. Older checkpoints are refused.
const SnapshotVersion = 3

// ErrDeflateSnapshot reports a checkpoint in the DEFLATE container that
// builds before format version 3 wrote. Its body is compressed, so its
// fields cannot be read; it is refused whole.
var ErrDeflateSnapshot = errors.New("engine: decode snapshot: DEFLATE-compressed snapshot (format version 2 or older) is no longer read; this build reads raw version-3 snapshots")

// SystemSnapshot composes the serialised state of every component of a
// simulation into one versioned checkpoint (see Encode for the framing).
type SystemSnapshot struct {
	// Version is the snapshot format version (SnapshotVersion at encode).
	Version int
	// Step is the simulation step the system was on when checkpointed.
	Step int
	// Components maps a caller-chosen name to that component's payload.
	Components map[string][]byte
}

// NewSystemSnapshot starts an empty snapshot at the given step.
func NewSystemSnapshot(step int) *SystemSnapshot {
	return &SystemSnapshot{
		Version:    SnapshotVersion,
		Step:       step,
		Components: make(map[string][]byte),
	}
}

// AddBytes stores pre-serialised state under name. Duplicate names are
// rejected: every component of the system must have a distinct identity.
func (s *SystemSnapshot) AddBytes(name string, data []byte) error {
	if _, ok := s.Components[name]; ok {
		return fmt.Errorf("engine: duplicate snapshot component %q", name)
	}
	s.Components[name] = data
	return nil
}

// Bytes returns the stored state for name.
func (s *SystemSnapshot) Bytes(name string) ([]byte, error) {
	data, ok := s.Components[name]
	if !ok {
		return nil, fmt.Errorf("engine: snapshot has no component %q", name)
	}
	return data, nil
}

// Snapshot framing. The encoding is a fixed magic followed by a raw body
// of varint-framed (name, payload) entries sorted by name:
//
//	magic | version, step, n, n × (len(name), name, len(data), data)
//
// Component payloads are stored as given: each model has its own dense
// codec, and the container adds nothing but the framing. A suspended fleet
// chip is encoded and decoded on every batch, and compressing it cost more
// CPU than the chip's physics for about a quarter fewer bytes. Sorting
// makes encoding deterministic despite the map. Input without the magic is
// refused: this is the only framing.
//
// Builds before version 3 wrote the same fields as one DEFLATE stream
// after the magic. The raw body's first byte is its version, 3, as one
// uvarint byte. A DEFLATE stream holding a body of version 1 or 2 never
// starts with that byte: 0x03 opens a final fixed-Huffman block whose
// first code is an end-of-block or a length, never the literal 1 or 2
// such a body starts with. So only a first byte of 3 is parsed, and any
// other is refused with ErrDeflateSnapshot; no compressed body is ever
// parsed as a raw one. (A later raw version is refused the same way: its
// first byte cannot be told from a compressed stream's.)

// snapshotMagic leads every encoded snapshot.
var snapshotMagic = []byte{0x00, 'D', 'H', 'C'}

// Encode serialises the snapshot.
func (s *SystemSnapshot) Encode() ([]byte, error) {
	if s.Step < 0 {
		return nil, fmt.Errorf("engine: encode snapshot: negative step %d", s.Step)
	}
	names := make([]string, 0, len(s.Components))
	size := len(snapshotMagic) + 3*binary.MaxVarintLen64
	for name, data := range s.Components {
		names = append(names, name)
		size += 2*binary.MaxVarintLen64 + len(name) + len(data)
	}
	sort.Strings(names)

	buf := make([]byte, 0, size)
	buf = append(buf, snapshotMagic...)
	buf = binary.AppendUvarint(buf, uint64(s.Version))
	buf = binary.AppendUvarint(buf, uint64(s.Step))
	buf = binary.AppendUvarint(buf, uint64(len(names)))
	for _, name := range names {
		buf = binary.AppendUvarint(buf, uint64(len(name)))
		buf = append(buf, name...)
		data := s.Components[name]
		buf = binary.AppendUvarint(buf, uint64(len(data)))
		buf = append(buf, data...)
	}
	return buf, nil
}

// DecodeSystemSnapshot parses an Encode result and checks its version.
// Every name and payload is copied out of data, so the caller may reuse
// data once it returns.
func DecodeSystemSnapshot(data []byte) (*SystemSnapshot, error) {
	if !bytes.HasPrefix(data, snapshotMagic) {
		return nil, fmt.Errorf("engine: decode snapshot: not a snapshot (bad magic)")
	}
	rest := data[len(snapshotMagic):]
	next := func(what string) (uint64, error) {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return 0, fmt.Errorf("engine: decode snapshot: truncated %s", what)
		}
		rest = rest[n:]
		return v, nil
	}
	if len(rest) == 0 {
		return nil, fmt.Errorf("engine: decode snapshot: truncated version")
	}
	if rest[0] != SnapshotVersion {
		return nil, ErrDeflateSnapshot
	}
	rest = rest[1:]
	step, err := next("step")
	if err != nil {
		return nil, err
	}
	if int(step) < 0 { // Encode refuses negative steps too
		return nil, fmt.Errorf("engine: decode snapshot: step %d out of range", step)
	}
	count, err := next("component count")
	if err != nil {
		return nil, err
	}
	if count > uint64(len(rest)) { // every entry needs ≥2 bytes
		return nil, fmt.Errorf("engine: decode snapshot: %d components exceeds payload", count)
	}
	s := &SystemSnapshot{
		Version:    SnapshotVersion,
		Step:       int(step),
		Components: make(map[string][]byte, count),
	}
	for i := uint64(0); i < count; i++ {
		nameLen, err := next("name length")
		if err != nil {
			return nil, err
		}
		if nameLen > uint64(len(rest)) {
			return nil, fmt.Errorf("engine: decode snapshot: component %d name overruns payload", i)
		}
		name := string(rest[:nameLen])
		rest = rest[nameLen:]
		dataLen, err := next("payload length")
		if err != nil {
			return nil, err
		}
		if dataLen > uint64(len(rest)) {
			return nil, fmt.Errorf("engine: decode snapshot: component %q overruns payload", name)
		}
		if _, ok := s.Components[name]; ok {
			return nil, fmt.Errorf("engine: decode snapshot: duplicate component %q", name)
		}
		s.Components[name] = bytes.Clone(rest[:dataLen])
		rest = rest[dataLen:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("engine: decode snapshot: %d trailing bytes", len(rest))
	}
	return s, nil
}
