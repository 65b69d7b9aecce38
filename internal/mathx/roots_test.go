package mathx

import (
	"math"
	"testing"
)

func TestBisectFindsRoot(t *testing.T) {
	root, err := Bisect(func(x float64) float64 { return x*x - 2 }, 0, 2, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if !AlmostEqual(root, math.Sqrt2, 1e-11) {
		t.Errorf("root = %.15f, want sqrt(2)", root)
	}
}

// TestBisectFindsFixedPoint solves cos(x) = x, whose root is the Dottie
// number.
func TestBisectFindsFixedPoint(t *testing.T) {
	root, err := Bisect(func(x float64) float64 { return math.Cos(x) - x }, 0, 1, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if !AlmostEqual(root, 0.7390851332151607, 1e-11) {
		t.Errorf("root = %.15f, want 0.739085133215161", root)
	}
}

func TestBisectEndpointRoot(t *testing.T) {
	root, err := Bisect(func(x float64) float64 { return x }, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if root != 0 {
		t.Errorf("root = %g, want 0", root)
	}
}

func TestBisectNoBracket(t *testing.T) {
	if _, err := Bisect(func(x float64) float64 { return x*x + 1 }, -1, 1, 0); err != ErrNoBracket {
		t.Errorf("err = %v, want ErrNoBracket", err)
	}
}
