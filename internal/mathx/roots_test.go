package mathx

import (
	"math"
	"testing"
)

func TestBrentFindsRoot(t *testing.T) {
	root, err := Brent(func(x float64) float64 { return x*x - 2 }, 0, 2, 1e-14)
	if err != nil {
		t.Fatal(err)
	}
	if !AlmostEqual(root, math.Sqrt2, 1e-12) {
		t.Errorf("root = %.15f, want sqrt(2)", root)
	}
}

func TestBrentEndpointRoot(t *testing.T) {
	root, err := Brent(func(x float64) float64 { return x }, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if root != 0 {
		t.Errorf("root = %g, want 0", root)
	}
}

func TestBrentNoBracket(t *testing.T) {
	if _, err := Brent(func(x float64) float64 { return x*x + 1 }, -1, 1, 0); err == nil {
		t.Error("expected ErrNoBracket")
	}
}

func TestBisectMatchesBrent(t *testing.T) {
	f := func(x float64) float64 { return math.Cos(x) - x }
	a, err := Brent(f, 0, 1, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Bisect(f, 0, 1, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if !AlmostEqual(a, b, 1e-9) {
		t.Errorf("brent %g vs bisect %g", a, b)
	}
}
