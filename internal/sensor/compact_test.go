package sensor

import (
	"encoding/binary"
	"math"
	"testing"

	"deepheal/internal/rngx"
)

func TestROCompactRoundTrip(t *testing.T) {
	s, err := NewRO(DefaultROConfig(), rngx.New(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		s.Read(0.005)
	}
	data := s.Snapshot()
	want := s.Read(0.005)

	r, err := NewRO(DefaultROConfig(), rngx.New(99))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Restore(data, 499); err == nil {
		t.Error("snapshot of 500 reads restored under a 499-read bound")
	}
	if err := r.Restore(data, 500); err != nil {
		t.Fatal(err)
	}
	if got := r.Read(0.005); got != want {
		t.Errorf("restored sensor read %+v, want %+v", got, want)
	}
	// The journal is one RLE run; size must not scale with read count.
	if len(data) > 128 {
		t.Errorf("RO snapshot is %dB after 500 reads; journal not run-length encoded?", len(data))
	}
}

func TestEMCompactRoundTrip(t *testing.T) {
	s, err := NewEM(DefaultEMConfig(), rngx.New(8))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := s.Read(73.0); err != nil {
			t.Fatal(err)
		}
	}
	data := s.Snapshot()
	want, err := s.Read(73.0)
	if err != nil {
		t.Fatal(err)
	}

	r, err := NewEM(DefaultEMConfig(), rngx.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Restore(data, 99); err == nil {
		t.Error("snapshot of 100 reads restored under a 99-read bound")
	}
	if err := r.Restore(data, 100); err != nil {
		t.Fatal(err)
	}
	got, err := r.Read(73.0)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("restored sensor read %+v, want %+v", got, want)
	}
}

func TestSensorCompactRejectsGarbage(t *testing.T) {
	ro, err := NewRO(DefaultROConfig(), rngx.New(3))
	if err != nil {
		t.Fatal(err)
	}
	good := ro.Snapshot()
	nanCfg := append([]byte(nil), good...)
	binary.LittleEndian.PutUint64(nanCfg[1:], math.Float64bits(math.NaN())) // FreshHz
	infCfg := append([]byte(nil), good...)
	binary.LittleEndian.PutUint64(infCfg[17:], math.Float64bits(math.Inf(1))) // NoiseSigmaHz
	for _, junk := range [][]byte{nil, {}, good[:10], append([]byte{0xff}, good[1:]...), nanCfg, infCfg} {
		if err := ro.Restore(junk, 1); err == nil {
			t.Errorf("garbage of %d bytes accepted by RO sensor", len(junk))
		}
	}
}

// TestSensorRestoreContinuesNoiseStream checks a restored sensor reads the
// same noise sequence as the uninterrupted one, even when it was built
// with a different seed.
func TestSensorRestoreContinuesNoiseStream(t *testing.T) {
	cfg := DefaultROConfig()
	ro, err := NewRO(cfg, rngx.New(7))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		ro.Read(0.01)
	}
	ro2, err := NewRO(cfg, rngx.New(99))
	if err != nil {
		t.Fatal(err)
	}
	if err := ro2.Restore(ro.Snapshot(), 5); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		want := ro.Read(0.02)
		got := ro2.Read(0.02)
		if got != want {
			t.Fatalf("read %d: restored sensor %+v, original %+v", i, got, want)
		}
	}

	em1, err := NewEM(DefaultEMConfig(), rngx.New(11))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := em1.Read(73.0); err != nil {
			t.Fatal(err)
		}
	}
	em2, err := NewEM(DefaultEMConfig(), rngx.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := em2.Restore(em1.Snapshot(), 4); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		want, err := em1.Read(73.4)
		if err != nil {
			t.Fatal(err)
		}
		got, err := em2.Read(73.4)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("read %d: restored EM sensor %+v, original %+v", i, got, want)
		}
	}
}
