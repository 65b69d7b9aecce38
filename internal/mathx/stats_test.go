package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMeanStd(t *testing.T) {
	v := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if !AlmostEqual(Mean(v), 5, 1e-12) {
		t.Errorf("Mean = %g", Mean(v))
	}
	if !AlmostEqual(StdDev(v), 2.138089935299395, 1e-12) {
		t.Errorf("StdDev = %g", StdDev(v))
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 || StdDev([]float64{1}) != 0 {
		t.Error("empty/short input handling wrong")
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([]float64{3, -1, 7, 0})
	if lo != -1 || hi != 7 {
		t.Errorf("MinMax = %g, %g", lo, hi)
	}
}

func TestPercentile(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {75, 4}, {10, 1.4},
	}
	for _, c := range cases {
		if got := Percentile(v, c.p); !AlmostEqual(got, c.want, 1e-12) {
			t.Errorf("P%.0f = %g, want %g", c.p, got, c.want)
		}
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	v := []float64{3, 1, 2}
	Percentile(v, 50)
	if v[0] != 3 || v[1] != 1 || v[2] != 2 {
		t.Errorf("input mutated: %v", v)
	}
}

func TestTrapezoid(t *testing.T) {
	xs := Linspace(0, 1, 101)
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = x * x
	}
	if got := Trapezoid(xs, ys); !AlmostEqual(got, 1.0/3, 1e-4) {
		t.Errorf("∫x² = %g, want 1/3", got)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Error("Clamp wrong")
	}
}

func TestLinspace(t *testing.T) {
	v := Linspace(0, 10, 5)
	want := []float64{0, 2.5, 5, 7.5, 10}
	for i := range v {
		if !AlmostEqual(v[i], want[i], 1e-12) {
			t.Errorf("Linspace[%d] = %g, want %g", i, v[i], want[i])
		}
	}
}

func TestInterpolator(t *testing.T) {
	in, err := NewInterpolator([]float64{0, 1, 2}, []float64{0, 10, 0})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ x, want float64 }{
		{-1, 0}, {0, 0}, {0.5, 5}, {1, 10}, {1.5, 5}, {2, 0}, {3, 0},
	}
	for _, c := range cases {
		if got := in.At(c.x); !AlmostEqual(got, c.want, 1e-12) {
			t.Errorf("At(%g) = %g, want %g", c.x, got, c.want)
		}
	}
}

func TestInterpolatorErrors(t *testing.T) {
	if _, err := NewInterpolator([]float64{1, 1}, []float64{0, 0}); err == nil {
		t.Error("expected error for non-increasing x")
	}
	if _, err := NewInterpolator([]float64{1}, []float64{0, 0}); err == nil {
		t.Error("expected error for length mismatch")
	}
}

func TestAlmostEqualProperties(t *testing.T) {
	f := func(a float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) {
			return true
		}
		return AlmostEqual(a, a, 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if AlmostEqual(1, 2, 1e-6) {
		t.Error("1 and 2 must not be almost equal")
	}
}

func TestMeanWithinMinMaxProperty(t *testing.T) {
	f := func(raw []float64) bool {
		v := raw[:0]
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				v = append(v, x)
			}
		}
		if len(v) == 0 {
			return true
		}
		lo, hi := MinMax(v)
		m := Mean(v)
		return m >= lo-1e-9 && m <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
