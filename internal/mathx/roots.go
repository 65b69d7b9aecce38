package mathx

import (
	"errors"
	"math"
)

// ErrNoBracket is returned when a root finder is given an interval whose
// endpoints do not bracket a sign change.
var ErrNoBracket = errors.New("mathx: endpoints do not bracket a root")

// Bisect finds a root of f in [a, b] by bisection. f(a) and f(b) must have
// opposite signs. tol is the absolute x tolerance (0 means 1e-12).
func Bisect(f func(float64) float64, a, b, tol float64) (float64, error) {
	if tol <= 0 {
		tol = 1e-12
	}
	fa, fb := f(a), f(b)
	if fa == 0 {
		return a, nil
	}
	if fb == 0 {
		return b, nil
	}
	if fa*fb > 0 {
		return 0, ErrNoBracket
	}
	for math.Abs(b-a) > tol {
		m := 0.5 * (a + b)
		fm := f(m)
		if fm == 0 {
			return m, nil
		}
		if fa*fm < 0 {
			b, fb = m, fm
		} else {
			a, fa = m, fm
		}
	}
	return 0.5 * (a + b), nil
}
