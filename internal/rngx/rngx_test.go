package rngx

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(123), New(123)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 50; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 5 {
		t.Errorf("different seeds produced %d/50 identical draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(99)
	c1 := parent.Split(1)
	c2 := parent.Split(2)
	same := 0
	for i := 0; i < 50; i++ {
		if c1.Float64() == c2.Float64() {
			same++
		}
	}
	if same > 5 {
		t.Errorf("split children produced %d/50 identical draws", same)
	}
}

func TestSplitDeterministic(t *testing.T) {
	a := New(7).Split(3)
	b := New(7).Split(3)
	for i := 0; i < 20; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("split not deterministic")
		}
	}
}

func TestUniformRange(t *testing.T) {
	s := New(5)
	for i := 0; i < 1000; i++ {
		v := s.Uniform(2, 3)
		if v < 2 || v >= 3 {
			t.Fatalf("Uniform out of range: %g", v)
		}
	}
}

func TestLogUniformRange(t *testing.T) {
	s := New(5)
	for i := 0; i < 1000; i++ {
		v := s.LogUniform(1e-3, 1e3)
		if v < 1e-3 || v > 1e3 {
			t.Fatalf("LogUniform out of range: %g", v)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	s := New(17)
	n := 20000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := s.Normal(10, 2)
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean-10) > 0.1 {
		t.Errorf("mean = %g, want ~10", mean)
	}
	if math.Abs(math.Sqrt(variance)-2) > 0.1 {
		t.Errorf("sigma = %g, want ~2", math.Sqrt(variance))
	}
}

func TestLogNormalPositive(t *testing.T) {
	s := New(23)
	for i := 0; i < 1000; i++ {
		if s.LogNormal(0, 1) <= 0 {
			t.Fatal("lognormal must be positive")
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(3)
	p := s.Perm(10)
	seen := make(map[int]bool, 10)
	for _, v := range p {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("bad permutation %v", p)
		}
		seen[v] = true
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(9)
	hits := 0
	n := 10000
	for i := 0; i < n; i++ {
		if s.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / float64(n)
	if math.Abs(frac-0.25) > 0.02 {
		t.Errorf("Bool(0.25) rate = %g", frac)
	}
}

func TestSnapshotRestoreContinuesSequence(t *testing.T) {
	// A restored stream must continue exactly where the snapshot was taken,
	// across every draw kind (the journal replays them all).
	s := New(42)
	s.Float64()
	s.Normal(0, 1)
	s.IntN(9)
	s.Perm(5)
	s.Split(3)
	s.LogNormal(0, 0.5)
	s.Uniform(1, 2)
	s.Bool(0.5)
	r := New(0)
	if err := r.Restore(s.Snapshot(), unbounded); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if a, b := s.Float64(), r.Float64(); a != b {
			t.Fatalf("draw %d: restored %g, original %g", i, b, a)
		}
		if a, b := s.Normal(3, 2), r.Normal(3, 2); a != b {
			t.Fatalf("normal draw %d diverged", i)
		}
	}
}

func TestSnapshotRestoreInPlace(t *testing.T) {
	s := New(8)
	for i := 0; i < 10; i++ {
		s.Normal(0, 1)
	}
	snap := s.Snapshot()
	want := s.Float64()
	other := New(999) // differently seeded and positioned
	other.IntN(4)
	if err := other.Restore(snap, unbounded); err != nil {
		t.Fatal(err)
	}
	if got := other.Float64(); got != want {
		t.Errorf("in-place restore drew %g, want %g", got, want)
	}
}

func TestSnapshotSplitChildrenReproducible(t *testing.T) {
	s := New(12)
	s.Float64()
	snap := s.Snapshot()
	wantChild := s.Split(5).Float64()
	r := New(0)
	if err := r.Restore(snap, unbounded); err != nil {
		t.Fatal(err)
	}
	if got := r.Split(5).Float64(); got != wantChild {
		t.Errorf("restored split child drew %g, want %g", got, wantChild)
	}
}

// TestRestoreRejectsGarbage checks a rejected payload leaves the stream
// where it was.
func TestRestoreRejectsGarbage(t *testing.T) {
	s, untouched := New(4), New(4)
	s.Normal(0, 1)
	untouched.Normal(0, 1)
	good := s.Snapshot()
	for _, junk := range [][]byte{[]byte("junk"), good[:len(good)-1], append(good, 0)} {
		if err := s.Restore(junk, unbounded); err == nil {
			t.Errorf("garbage %v accepted as rng snapshot", junk)
		}
	}
	assertSameContinuation(t, s, untouched)
}

func TestIntNRange(t *testing.T) {
	s := New(31)
	for i := 0; i < 1000; i++ {
		if v := s.IntN(7); v < 0 || v >= 7 {
			t.Fatalf("IntN out of range: %d", v)
		}
	}
}
