package engine

import (
	"bytes"
	"compress/flate"
	"errors"
	"strings"
	"testing"
)

func TestSystemSnapshotRoundtrip(t *testing.T) {
	for _, step := range []int{0, 1, 1 << 40} {
		enc, err := NewSystemSnapshot(step).Encode()
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeSystemSnapshot(enc)
		if err != nil {
			t.Fatal(err)
		}
		if got.Step != step || got.Version != SnapshotVersion || len(got.Components) != 0 {
			t.Errorf("step %d: decoded step/version/components = %d/%d/%d",
				step, got.Step, got.Version, len(got.Components))
		}
		if err := got.AddBytes("after", []byte("x")); err != nil {
			t.Errorf("step %d: decoded empty snapshot cannot take components: %v", step, err)
		}
	}
}

func TestSystemSnapshotRejectsDuplicates(t *testing.T) {
	snap := NewSystemSnapshot(0)
	if err := snap.AddBytes("x", []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := snap.AddBytes("x", []byte{2}); err == nil {
		t.Fatal("duplicate component name accepted")
	}
}

func TestSystemSnapshotMissingComponent(t *testing.T) {
	snap := NewSystemSnapshot(0)
	if _, err := snap.Bytes("ghost"); err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Fatalf("missing component err = %v", err)
	}
}

func TestSystemSnapshotVersionCheck(t *testing.T) {
	snap := NewSystemSnapshot(7)
	snap.Version = SnapshotVersion + 1
	data, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSystemSnapshot(data); err == nil {
		t.Fatal("future snapshot version accepted")
	}
	if _, err := DecodeSystemSnapshot([]byte("not a snapshot")); err == nil {
		t.Fatal("garbage accepted as snapshot")
	}
}

func TestCompactSnapshotRoundTrip(t *testing.T) {
	s := NewSystemSnapshot(42)
	payloads := map[string][]byte{
		"bti/core/0": bytes.Repeat([]byte{1, 2, 3, 4}, 64),
		"bti/core/1": {},
		"core/sim":   []byte("sim payload here"),
	}
	for name, data := range payloads {
		if err := s.AddBytes(name, data); err != nil {
			t.Fatal(err)
		}
	}
	enc, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeSystemSnapshot(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Step != 42 || dec.Version != SnapshotVersion {
		t.Errorf("decoded step/version %d/%d, want 42/%d", dec.Step, dec.Version, SnapshotVersion)
	}
	if len(dec.Components) != len(payloads) {
		t.Fatalf("decoded %d components, want %d", len(dec.Components), len(payloads))
	}
	for name, want := range payloads {
		got, err := dec.Bytes(name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("component %q corrupted through compact round-trip", name)
		}
	}
}

func TestCompactEncodingDeterministic(t *testing.T) {
	build := func() []byte {
		s := NewSystemSnapshot(7)
		for _, name := range []string{"z", "a", "m"} {
			if err := s.AddBytes(name, []byte(name+"-payload")); err != nil {
				t.Fatal(err)
			}
		}
		enc, err := s.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return enc
	}
	if !bytes.Equal(build(), build()) {
		t.Error("compact encoding differs across identical snapshots")
	}
}

func TestCompactDecodeRejectsCorruption(t *testing.T) {
	s := NewSystemSnapshot(1)
	if err := s.AddBytes("x", []byte("data")); err != nil {
		t.Fatal(err)
	}
	enc, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for _, data := range [][]byte{
		enc[:len(enc)-3],
		append(append([]byte{}, snapshotMagic...), 0xff, 0xff),
	} {
		if _, err := DecodeSystemSnapshot(data); err == nil {
			t.Errorf("corrupt compact snapshot of %d bytes accepted", len(data))
		}
	}
}

// gobSnapshot is NewSystemSnapshot(3) holding {"c": {9, 9}}, as the retired
// gob container encoded it: the format of checkpoints written by older
// builds.
var gobSnapshot = []byte{
	0x40, 0x7f, 0x03, 0x01, 0x01, 0x0e, 0x53, 0x79, 0x73, 0x74, 0x65, 0x6d,
	0x53, 0x6e, 0x61, 0x70, 0x73, 0x68, 0x6f, 0x74, 0x01, 0xff, 0x80, 0x00,
	0x01, 0x03, 0x01, 0x07, 0x56, 0x65, 0x72, 0x73, 0x69, 0x6f, 0x6e, 0x01,
	0x04, 0x00, 0x01, 0x04, 0x53, 0x74, 0x65, 0x70, 0x01, 0x04, 0x00, 0x01,
	0x0a, 0x43, 0x6f, 0x6d, 0x70, 0x6f, 0x6e, 0x65, 0x6e, 0x74, 0x73, 0x01,
	0xff, 0x82, 0x00, 0x00, 0x00, 0x22, 0xff, 0x81, 0x04, 0x01, 0x01, 0x12,
	0x6d, 0x61, 0x70, 0x5b, 0x73, 0x74, 0x72, 0x69, 0x6e, 0x67, 0x5d, 0x5b,
	0x5d, 0x75, 0x69, 0x6e, 0x74, 0x38, 0x01, 0xff, 0x82, 0x00, 0x01, 0x0c,
	0x01, 0x0a, 0x00, 0x00, 0x0e, 0xff, 0x80, 0x01, 0x04, 0x01, 0x06, 0x01,
	0x01, 0x01, 0x63, 0x02, 0x09, 0x09, 0x00,
}

// TestGobAndCompactFormsSniffCorrectly checks the decoder tells the forms
// apart by the magic: the compact form decodes, while the retired gob form
// and anything else without the magic are refused.
func TestGobAndCompactFormsSniffCorrectly(t *testing.T) {
	s := NewSystemSnapshot(3)
	if err := s.AddBytes("c", []byte{9, 9}); err != nil {
		t.Fatal(err)
	}
	enc, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeSystemSnapshot(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := dec.Bytes("c"); dec.Step != 3 || !bytes.Equal(got, []byte{9, 9}) {
		t.Errorf("decoded step %d, component %v", dec.Step, got)
	}
	wrongMagic := append([]byte{0x01}, enc[1:]...)
	for _, data := range [][]byte{gobSnapshot, nil, {}, snapshotMagic[:3], enc[1:], wrongMagic} {
		if _, err := DecodeSystemSnapshot(data); err == nil {
			t.Errorf("input of %d bytes without the snapshot magic decoded", len(data))
		}
	}
}

// v2Body is the body of NewSystemSnapshot(5) holding {"c": {9, 9}} as a
// version-2 build framed it before compressing: version, step, count, then
// (len(name), name, len(data), data).
var v2Body = []byte{2, 5, 1, 1, 'c', 2, 9, 9}

// TestDeflateSnapshotRefused checks a checkpoint in the older DEFLATE
// container, at any compression level, is refused with ErrDeflateSnapshot
// rather than misparsed as a raw body.
func TestDeflateSnapshotRefused(t *testing.T) {
	bodies := [][]byte{v2Body, {1, 5, 0}, append(append([]byte{}, v2Body[:6]...), bytes.Repeat([]byte{7}, 5000)...)}
	levels := []int{flate.NoCompression, flate.BestSpeed, flate.DefaultCompression, flate.BestCompression, flate.HuffmanOnly}
	for _, body := range bodies {
		for _, level := range levels {
			var buf bytes.Buffer
			buf.Write(snapshotMagic)
			zw, err := flate.NewWriter(&buf, level)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := zw.Write(body); err != nil {
				t.Fatal(err)
			}
			if err := zw.Close(); err != nil {
				t.Fatal(err)
			}
			_, err = DecodeSystemSnapshot(buf.Bytes())
			if !errors.Is(err, ErrDeflateSnapshot) {
				t.Errorf("level %d, %d-byte v%d body: err = %v, want ErrDeflateSnapshot", level, len(body), body[0], err)
			}
		}
	}
}

// TestTruncatedSnapshotRefused checks every strict prefix of a raw
// snapshot fails to decode: with no compressed stream to end early, the
// framing alone must catch a cut anywhere.
func TestTruncatedSnapshotRefused(t *testing.T) {
	s := NewSystemSnapshot(300)
	for name, data := range map[string][]byte{"a": {1, 2, 3}, "bb": {}, "ccc": bytes.Repeat([]byte{4}, 200)} {
		if err := s.AddBytes(name, data); err != nil {
			t.Fatal(err)
		}
	}
	enc, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSystemSnapshot(enc); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(enc); n++ {
		if _, err := DecodeSystemSnapshot(enc[:n]); err == nil {
			t.Fatalf("snapshot cut to %d of %d bytes decoded", n, len(enc))
		}
	}
}
