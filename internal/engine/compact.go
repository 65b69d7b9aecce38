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

// Compact snapshot framing. The gob Encode form is self-describing but pays
// per-snapshot type-descriptor overhead and stores component payloads
// verbatim; a fleet checkpointing thousands of chips wants something denser.
// The compact form is a fixed header followed by one DEFLATE stream of
// varint-framed (name, payload) entries sorted by name:
//
//	magic | flate( version, step, n, n × (len(name), name, len(data), data) )
//
// Component payloads are stored as given (they may themselves be compact
// per-component encodings); the shared DEFLATE layer then squeezes the
// redundancy across components — occupancy byte-planes, repeated config
// blocks — in one pass. Sorting makes encoding deterministic despite the
// map. DecodeSystemSnapshot sniffs the magic, so both forms decode through
// the same entry point.
//
// A fleet suspends and rehydrates chips on every batch, so the codec keeps
// its DEFLATE state across calls: writers, readers and body buffers come
// from pools, and writers and readers are Reset per snapshot (a reset
// writer emits the same bytes as a fresh one). The container compresses at
// BestSpeed: on a 4x4 chip that halves the encode time against
// DefaultCompression for about 5 % more bytes, and any DEFLATE level
// decodes the same way.

// compactSnapshotMagic leads the compact framing. A gob stream opens with a
// non-zero uvarint message length, so the leading zero byte cannot collide.
var compactSnapshotMagic = []byte{0x00, 'D', 'H', 'C'}

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

// EncodeCompact serialises the snapshot in the compact framing.
func (s *SystemSnapshot) EncodeCompact() ([]byte, error) {
	if s.Step < 0 {
		return nil, fmt.Errorf("engine: encode compact: negative step %d", s.Step)
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
	buf.Write(compactSnapshotMagic)
	zw := writerPool.Get().(*flate.Writer)
	defer func() {
		zw.Reset(io.Discard) // drop the reference to buf before pooling
		writerPool.Put(zw)
	}()
	zw.Reset(&buf)
	if _, err := zw.Write(body.Bytes()); err != nil {
		return nil, fmt.Errorf("engine: encode compact: %w", err)
	}
	if err := zw.Close(); err != nil {
		return nil, fmt.Errorf("engine: encode compact: %w", err)
	}
	return buf.Bytes(), nil
}

// decodeCompactSnapshot parses the compact framing (after the magic has
// been sniffed), over a pooled reader and body buffer.
func decodeCompactSnapshot(data []byte) (*SystemSnapshot, error) {
	zr := readerPool.Get().(io.ReadCloser)
	defer func() {
		zr.(flate.Resetter).Reset(bytes.NewReader(nil), nil) // drop the reference to data
		readerPool.Put(zr)
	}()
	body := getBody()
	defer putBody(body)
	return decodeCompactWith(zr, body, data)
}

// decodeCompactWith inflates data through zr into the empty buffer body
// and parses it. Every name and payload is copied out of body, so the
// caller may reuse both once it returns, whatever the outcome.
func decodeCompactWith(zr io.ReadCloser, body *bytes.Buffer, data []byte) (*SystemSnapshot, error) {
	if err := zr.(flate.Resetter).Reset(bytes.NewReader(data[len(compactSnapshotMagic):]), nil); err != nil {
		return nil, fmt.Errorf("engine: decode compact snapshot: %w", err)
	}
	if _, err := body.ReadFrom(zr); err != nil {
		return nil, fmt.Errorf("engine: decode compact snapshot: %w", err)
	}
	rest := body.Bytes()
	next := func(what string) (uint64, error) {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return 0, fmt.Errorf("engine: decode compact snapshot: truncated %s", what)
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
	if int(step) < 0 { // EncodeCompact refuses negative steps too
		return nil, fmt.Errorf("engine: decode compact snapshot: step %d out of range", step)
	}
	count, err := next("component count")
	if err != nil {
		return nil, err
	}
	if count > uint64(len(rest)) { // every entry needs ≥2 bytes
		return nil, fmt.Errorf("engine: decode compact snapshot: %d components exceeds payload", count)
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
			return nil, fmt.Errorf("engine: decode compact snapshot: component %d name overruns payload", i)
		}
		name := string(rest[:nameLen])
		rest = rest[nameLen:]
		dataLen, err := next("payload length")
		if err != nil {
			return nil, err
		}
		if dataLen > uint64(len(rest)) {
			return nil, fmt.Errorf("engine: decode compact snapshot: component %q overruns payload", name)
		}
		if _, ok := s.Components[name]; ok {
			return nil, fmt.Errorf("engine: decode compact snapshot: duplicate component %q", name)
		}
		payload := make([]byte, dataLen)
		copy(payload, rest[:dataLen])
		s.Components[name] = payload
		rest = rest[dataLen:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("engine: decode compact snapshot: %d trailing bytes", len(rest))
	}
	return s, nil
}
