package engine

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"sync"
	"testing"
)

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
	enc, err := s.EncodeCompact()
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
		enc, err := s.EncodeCompact()
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
	enc, err := s.EncodeCompact()
	if err != nil {
		t.Fatal(err)
	}
	for _, data := range [][]byte{
		enc[:len(enc)-3],
		append(append([]byte{}, compactSnapshotMagic...), 0xff, 0xff),
	} {
		if _, err := DecodeSystemSnapshot(data); err == nil {
			t.Errorf("corrupt compact snapshot of %d bytes accepted", len(data))
		}
	}
}

func TestGobAndCompactFormsSniffCorrectly(t *testing.T) {
	s := NewSystemSnapshot(3)
	if err := s.AddBytes("c", []byte{9, 9}); err != nil {
		t.Fatal(err)
	}
	gobEnc, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	compactEnc, err := s.EncodeCompact()
	if err != nil {
		t.Fatal(err)
	}
	for _, enc := range [][]byte{gobEnc, compactEnc} {
		dec, err := DecodeSystemSnapshot(enc)
		if err != nil {
			t.Fatal(err)
		}
		if dec.Step != 3 {
			t.Errorf("decoded step %d, want 3", dec.Step)
		}
	}
}

// refEncode re-compresses the body of a compact encoding with a freshly
// allocated BestSpeed writer: the bytes a pooled, reset writer must match.
func refEncode(t *testing.T, enc []byte) []byte {
	t.Helper()
	body, err := io.ReadAll(flate.NewReader(bytes.NewReader(enc[len(compactSnapshotMagic):])))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.Write(compactSnapshotMagic)
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
		enc, err := s.EncodeCompact()
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
				enc, err := snaps[i].EncodeCompact()
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
	valid, err := snaps[2].EncodeCompact()
	if err != nil {
		t.Fatal(err)
	}
	other, err := snaps[3].EncodeCompact()
	if err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte(nil), valid...)
	for i := len(compactSnapshotMagic) + 4; i < len(corrupt); i += 9 {
		corrupt[i] ^= 0x5a
	}
	// One reader and one body buffer carry over from each failed decode to
	// the next valid one, as they do through the pools.
	zr := flate.NewReader(bytes.NewReader(nil))
	body := new(bytes.Buffer)
	for _, bad := range [][]byte{valid[:len(valid)/2], valid[:len(compactSnapshotMagic)+1], corrupt} {
		body.Reset()
		if _, err := decodeCompactWith(zr, body, bad); err == nil {
			t.Fatalf("damaged stream of %d bytes decoded", len(bad))
		}
		body.Reset()
		dec, err := decodeCompactWith(zr, body, valid)
		if err != nil {
			t.Fatalf("valid stream after a damaged one: %v", err)
		}
		// Reuse the body once more: dec must own its payloads.
		body.Reset()
		if _, err := decodeCompactWith(zr, body, other); err != nil {
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
	enc, err := s.EncodeCompact()
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
