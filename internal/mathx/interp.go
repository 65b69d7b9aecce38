package mathx

import (
	"fmt"
	"sort"
)

// Interpolator performs piecewise-linear interpolation over strictly
// increasing x samples; queries outside the range clamp to the endpoints.
type Interpolator struct {
	xs, ys []float64
}

// NewInterpolator builds an interpolator from samples. xs must be strictly
// increasing and the two slices equal length (≥ 1).
func NewInterpolator(xs, ys []float64) (*Interpolator, error) {
	if len(xs) != len(ys) || len(xs) == 0 {
		return nil, fmt.Errorf("mathx: interpolator needs equal non-empty samples, got %d/%d", len(xs), len(ys))
	}
	for i := 1; i < len(xs); i++ {
		if xs[i] <= xs[i-1] {
			return nil, fmt.Errorf("mathx: interpolator x not strictly increasing at index %d", i)
		}
	}
	in := &Interpolator{xs: make([]float64, len(xs)), ys: make([]float64, len(ys))}
	copy(in.xs, xs)
	copy(in.ys, ys)
	return in, nil
}

// At evaluates the interpolant at x.
func (in *Interpolator) At(x float64) float64 {
	n := len(in.xs)
	if x <= in.xs[0] {
		return in.ys[0]
	}
	if x >= in.xs[n-1] {
		return in.ys[n-1]
	}
	i := sort.SearchFloat64s(in.xs, x)
	// xs[i-1] < x <= xs[i]
	x0, x1 := in.xs[i-1], in.xs[i]
	y0, y1 := in.ys[i-1], in.ys[i]
	return y0 + (y1-y0)*(x-x0)/(x1-x0)
}

// Clamp limits v to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Linspace returns n evenly spaced values from a to b inclusive (n ≥ 2).
func Linspace(a, b float64, n int) []float64 {
	if n < 2 {
		panic("mathx: Linspace needs n >= 2")
	}
	out := make([]float64, n)
	step := (b - a) / float64(n-1)
	for i := range out {
		out[i] = a + float64(i)*step
	}
	out[n-1] = b
	return out
}
