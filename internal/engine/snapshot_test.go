package engine

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"strings"
	"sync"
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
		"core/sim":   []byte("gob payload here"),
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

// refEncode re-compresses the body of a compact encoding with a freshly
// allocated BestSpeed writer: the bytes a pooled, reset writer must match.
func refEncode(t *testing.T, enc []byte) []byte {
	t.Helper()
	body, err := io.ReadAll(flate.NewReader(bytes.NewReader(enc[len(snapshotMagic):])))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.Write(snapshotMagic)
	zw, err := flate.NewWriter(&buf, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zw.Write(body); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// codecSnapshots are snapshots of different sizes and redundancy, so pooled
// writers and readers are reused across unlike streams.
func codecSnapshots(t *testing.T) []*SystemSnapshot {
	t.Helper()
	var out []*SystemSnapshot
	for k, size := range []int{0, 17, 4096, 70000} {
		s := NewSystemSnapshot(k)
		for c := 0; c < 3; c++ {
			data := make([]byte, size)
			for i := range data {
				data[i] = byte(i*(c+1) + i/(k+1)*7)
			}
			if err := s.AddBytes(fmt.Sprintf("comp/%d", c), data); err != nil {
				t.Fatal(err)
			}
		}
		out = append(out, s)
	}
	return out
}

func TestPooledEncodeMatchesFreshWriter(t *testing.T) {
	snaps := codecSnapshots(t)
	want := make([][]byte, len(snaps))
	for i, s := range snaps {
		enc, err := s.Encode()
		if err != nil {
			t.Fatal(err)
		}
		want[i] = refEncode(t, enc)
		if !bytes.Equal(enc, want[i]) {
			t.Fatalf("snapshot %d: pooled encoding differs from a fresh BestSpeed writer", i)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8) // one slot per goroutine, each sends at most once
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				i := (g + round) % len(snaps)
				enc, err := snaps[i].Encode()
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(enc, want[i]) {
					errs <- fmt.Errorf("goroutine %d round %d: snapshot %d encoded differently", g, round, i)
					return
				}
				dec, err := DecodeSystemSnapshot(enc)
				if err != nil {
					errs <- err
					return
				}
				if dec.Step != snaps[i].Step || len(dec.Components) != len(snaps[i].Components) {
					errs <- fmt.Errorf("goroutine %d round %d: snapshot %d decoded wrongly", g, round, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestPooledReaderRecoversAfterCorruptStream(t *testing.T) {
	snaps := codecSnapshots(t)
	valid, err := snaps[2].Encode()
	if err != nil {
		t.Fatal(err)
	}
	other, err := snaps[3].Encode()
	if err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte(nil), valid...)
	for i := len(snapshotMagic) + 4; i < len(corrupt); i += 9 {
		corrupt[i] ^= 0x5a
	}
	// One reader and one body buffer carry over from each failed decode to
	// the next valid one, as they do through the pools.
	zr := flate.NewReader(bytes.NewReader(nil))
	body := new(bytes.Buffer)
	for _, bad := range [][]byte{valid[:len(valid)/2], valid[:len(snapshotMagic)+1], corrupt} {
		body.Reset()
		if _, err := decodeWith(zr, body, bad); err == nil {
			t.Fatalf("damaged stream of %d bytes decoded", len(bad))
		}
		body.Reset()
		dec, err := decodeWith(zr, body, valid)
		if err != nil {
			t.Fatalf("valid stream after a damaged one: %v", err)
		}
		// Reuse the body once more: dec must own its payloads.
		body.Reset()
		if _, err := decodeWith(zr, body, other); err != nil {
			t.Fatal(err)
		}
		for name, want := range snaps[2].Components {
			if got, _ := dec.Bytes(name); !bytes.Equal(got, want) {
				t.Fatalf("component %q wrong after reusing the reader", name)
			}
		}
	}
}

func TestOversizedBodyNotPooled(t *testing.T) {
	s := NewSystemSnapshot(1)
	big := bytes.Repeat([]byte{7}, maxPooledBody+1)
	if err := s.AddBytes("big", big); err != nil {
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
	if got, _ := dec.Bytes("big"); !bytes.Equal(got, big) {
		t.Fatal("oversized component corrupted")
	}
	for i := 0; i < 8; i++ {
		if b := getBody(); b.Cap() > maxPooledBody {
			t.Fatalf("pool handed out a %d-byte body buffer, cap %d", b.Cap(), maxPooledBody)
		}
	}
	grown := new(bytes.Buffer)
	grown.Grow(maxPooledBody + 1)
	if putBody(grown) {
		t.Error("a body buffer over the cap went back to the pool")
	}
	if !putBody(new(bytes.Buffer)) {
		t.Error("a small body buffer was not pooled")
	}
}
