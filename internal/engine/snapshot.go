package engine

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"sync"
)

// SnapshotVersion is the current system-snapshot format version. Decoding
// rejects snapshots from a different version rather than guessing. Version 2
// switched the rngx journal inside component payloads to run-length
// encoding; version-1 checkpoints would decode but replay wrongly, so they
// are refused.
const SnapshotVersion = 2

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

// Snapshot framing. A fleet checkpointing thousands of chips wants a dense
// container, so the encoding is a fixed header followed by one DEFLATE
// stream of varint-framed (name, payload) entries sorted by name:
//
//	magic | flate( version, step, n, n × (len(name), name, len(data), data) )
//
// Component payloads are stored as given (each model has its own compact
// encoding); the shared DEFLATE layer then squeezes the redundancy across
// components — occupancy byte-planes, repeated config blocks — in one pass.
// Sorting makes encoding deterministic despite the map. Input without the
// magic is refused: this is the only framing.
//
// A fleet suspends and rehydrates chips on every batch, so the codec keeps
// its DEFLATE state across calls: writers, readers and body buffers come
// from pools, and writers and readers are Reset per snapshot (a reset
// writer emits the same bytes as a fresh one). The container compresses at
// BestSpeed: on a 4x4 chip that halves the encode time against
// DefaultCompression for about 5 % more bytes, and any DEFLATE level
// decodes the same way.

// snapshotMagic leads every encoded snapshot.
var snapshotMagic = []byte{0x00, 'D', 'H', 'C'}

// maxPooledBody caps the body buffers returned to bodyPool, so decoding one
// whole-fleet checkpoint does not pin its size in memory afterwards.
const maxPooledBody = 1 << 20

var (
	writerPool = sync.Pool{New: func() any {
		zw, err := flate.NewWriter(io.Discard, flate.BestSpeed)
		if err != nil {
			panic(err) // BestSpeed is a valid level
		}
		return zw
	}}
	readerPool = sync.Pool{New: func() any { return flate.NewReader(bytes.NewReader(nil)) }}
	bodyPool   = sync.Pool{New: func() any { return new(bytes.Buffer) }}
)

// getBody takes an empty body buffer from the pool.
func getBody() *bytes.Buffer {
	b := bodyPool.Get().(*bytes.Buffer)
	b.Reset()
	return b
}

// putBody returns b to the pool unless it has grown past maxPooledBody,
// and reports whether it did.
func putBody(b *bytes.Buffer) bool {
	if b.Cap() > maxPooledBody {
		return false
	}
	bodyPool.Put(b)
	return true
}

// Encode serialises the snapshot.
func (s *SystemSnapshot) Encode() ([]byte, error) {
	if s.Step < 0 {
		return nil, fmt.Errorf("engine: encode snapshot: negative step %d", s.Step)
	}
	names := make([]string, 0, len(s.Components))
	for name := range s.Components {
		names = append(names, name)
	}
	sort.Strings(names)

	body := getBody()
	defer putBody(body)
	uvarint := func(v uint64) { body.Write(binary.AppendUvarint(body.AvailableBuffer(), v)) }
	uvarint(uint64(s.Version))
	uvarint(uint64(s.Step))
	uvarint(uint64(len(names)))
	for _, name := range names {
		uvarint(uint64(len(name)))
		body.WriteString(name)
		data := s.Components[name]
		uvarint(uint64(len(data)))
		body.Write(data)
	}

	var buf bytes.Buffer
	buf.Write(snapshotMagic)
	zw := writerPool.Get().(*flate.Writer)
	defer func() {
		zw.Reset(io.Discard) // drop the reference to buf before pooling
		writerPool.Put(zw)
	}()
	zw.Reset(&buf)
	if _, err := zw.Write(body.Bytes()); err != nil {
		return nil, fmt.Errorf("engine: encode snapshot: %w", err)
	}
	if err := zw.Close(); err != nil {
		return nil, fmt.Errorf("engine: encode snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeSystemSnapshot parses an Encode result, over a pooled reader and
// body buffer, and checks its version.
func DecodeSystemSnapshot(data []byte) (*SystemSnapshot, error) {
	if !bytes.HasPrefix(data, snapshotMagic) {
		return nil, fmt.Errorf("engine: decode snapshot: not a snapshot (bad magic)")
	}
	zr := readerPool.Get().(io.ReadCloser)
	defer func() {
		zr.(flate.Resetter).Reset(bytes.NewReader(nil), nil) // drop the reference to data
		readerPool.Put(zr)
	}()
	body := getBody()
	defer putBody(body)
	return decodeWith(zr, body, data)
}

// decodeWith inflates data through zr into the empty buffer body
// and parses it. Every name and payload is copied out of body, so the
// caller may reuse both once it returns, whatever the outcome.
func decodeWith(zr io.ReadCloser, body *bytes.Buffer, data []byte) (*SystemSnapshot, error) {
	if err := zr.(flate.Resetter).Reset(bytes.NewReader(data[len(snapshotMagic):]), nil); err != nil {
		return nil, fmt.Errorf("engine: decode snapshot: %w", err)
	}
	if _, err := body.ReadFrom(zr); err != nil {
		return nil, fmt.Errorf("engine: decode snapshot: %w", err)
	}
	rest := body.Bytes()
	next := func(what string) (uint64, error) {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return 0, fmt.Errorf("engine: decode snapshot: truncated %s", what)
		}
		rest = rest[n:]
		return v, nil
	}
	version, err := next("version")
	if err != nil {
		return nil, err
	}
	if version != SnapshotVersion {
		return nil, fmt.Errorf("engine: snapshot version %d, this build reads %d", version, SnapshotVersion)
	}
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
		Version:    int(version),
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
		payload := make([]byte, dataLen)
		copy(payload, rest[:dataLen])
		s.Components[name] = payload
		rest = rest[dataLen:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("engine: decode snapshot: %d trailing bytes", len(rest))
	}
	return s, nil
}
