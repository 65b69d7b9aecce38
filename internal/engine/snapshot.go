package engine

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// SnapshotVersion is the current system-snapshot format version. Decoding
// rejects snapshots from a different version rather than guessing. Version 2
// switched the rngx journal inside component payloads to run-length
// encoding; version-1 checkpoints would gob-decode but replay wrongly, so
// they are refused.
const SnapshotVersion = 2

// SystemSnapshot composes the snapshots of every component of a simulation
// into one versioned, serialisable checkpoint.
type SystemSnapshot struct {
	// Version is the snapshot format version (SnapshotVersion at encode).
	Version int
	// Step is the simulation step the system was on when checkpointed.
	Step int
	// Components maps a caller-chosen name to that component's snapshot.
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

// Add snapshots the component and stores it under name.
func (s *SystemSnapshot) Add(name string, c Component) error {
	data, err := c.Snapshot()
	if err != nil {
		return fmt.Errorf("engine: snapshot %q: %w", name, err)
	}
	return s.AddBytes(name, data)
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

// Restore rewinds the component from the state stored under name.
func (s *SystemSnapshot) Restore(name string, c Component) error {
	data, err := s.Bytes(name)
	if err != nil {
		return err
	}
	if err := c.Restore(data); err != nil {
		return fmt.Errorf("engine: restore %q: %w", name, err)
	}
	return nil
}

// Encode serialises the snapshot.
func (s *SystemSnapshot) Encode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		return nil, fmt.Errorf("engine: encode snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeSystemSnapshot deserialises a snapshot (either the gob Encode form
// or the EncodeCompact framing, sniffed by magic) and checks its version.
func DecodeSystemSnapshot(data []byte) (*SystemSnapshot, error) {
	if bytes.HasPrefix(data, compactSnapshotMagic) {
		return decodeCompactSnapshot(data)
	}
	var s SystemSnapshot
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&s); err != nil {
		return nil, fmt.Errorf("engine: decode snapshot: %w", err)
	}
	if s.Version != SnapshotVersion {
		return nil, fmt.Errorf("engine: snapshot version %d, this build reads %d", s.Version, SnapshotVersion)
	}
	if s.Step < 0 {
		return nil, fmt.Errorf("engine: decode snapshot: negative step %d", s.Step)
	}
	if s.Components == nil {
		s.Components = make(map[string][]byte)
	}
	return &s, nil
}
