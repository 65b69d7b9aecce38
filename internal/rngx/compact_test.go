package rngx

import "testing"

func TestCompactSnapshotRoundTrip(t *testing.T) {
	s := New(99)
	s.Float64()
	s.Normal(0, 1)
	s.IntN(5)
	s.Perm(4)
	s.Split(2)
	data := s.Snapshot()
	want := s.Normal(0, 1)

	r := New(0)
	if err := r.Restore(data, unbounded); err != nil {
		t.Fatal(err)
	}
	if got := r.Normal(0, 1); got != want {
		t.Errorf("restored stream drew %g, want %g", got, want)
	}
}

func TestCompactSnapshotConstantSizeForRegularStream(t *testing.T) {
	s := New(7)
	for i := 0; i < 10; i++ {
		s.Normal(0, 1)
	}
	short := len(s.Snapshot())
	for i := 0; i < 100000; i++ {
		s.Normal(0, 1)
	}
	long := len(s.Snapshot())
	// A single-kind stream is one journal run; only the count varint grows.
	if long > short+8 {
		t.Errorf("snapshot grew from %dB to %dB over a regular stream", short, long)
	}
}

func TestCompactRestoreRejectsGarbage(t *testing.T) {
	for _, data := range [][]byte{nil, {}, []byte("junk"), {snapshotMagic}, {snapshotMagic, 0x02, 0xff}} {
		s := New(0)
		if err := s.Restore(data, unbounded); err == nil {
			t.Errorf("garbage %v accepted as snapshot", data)
		}
	}
}

func TestJournalRunLengthEncoding(t *testing.T) {
	s := New(1)
	for i := 0; i < 1000; i++ {
		s.Normal(0, 1)
		s.Float64()
	}
	// Alternating kinds produce one run per draw; identical consecutive
	// draws must collapse.
	if got := len(s.journal); got != 2000 {
		t.Fatalf("alternating draws produced %d runs, want 2000", got)
	}
	c := New(2)
	for i := 0; i < 1000; i++ {
		c.Normal(0, 1)
	}
	if got := len(c.journal); got != 1 {
		t.Errorf("identical draws produced %d runs, want 1", got)
	}
}
