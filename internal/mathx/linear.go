// Package mathx implements the numerical substrate used by the wearout
// simulators: dense and tridiagonal linear solvers, a sparse Cholesky
// factorization (the thermal grid) and a Jacobi-preconditioned
// conjugate-gradient solver (the power grid) for sparse symmetric systems,
// scalar root finding, interpolation and descriptive statistics.
//
// Everything here is deterministic and allocation-conscious; the solvers are
// small but complete enough to back a SPICE-like circuit engine, a power
// grid and thermal solver and a 1-D PDE integrator without external
// dependencies.
package mathx

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a linear system has no unique solution.
var ErrSingular = errors.New("mathx: singular matrix")

// Dense is a dense row-major matrix.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense allocates a rows×cols zero matrix.
func NewDense(rows, cols int) *Dense {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("mathx: invalid dense dims %dx%d", rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// Rows reports the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols reports the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns the element at (i, j).
func (m *Dense) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the element at (i, j).
func (m *Dense) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Add accumulates v into the element at (i, j).
func (m *Dense) Add(i, j int, v float64) { m.data[i*m.cols+j] += v }

// Zero resets every element to 0.
func (m *Dense) Zero() {
	for i := range m.data {
		m.data[i] = 0
	}
}

// Clone returns a deep copy of the matrix.
func (m *Dense) Clone() *Dense {
	c := NewDense(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// MulVec computes y = M·x. The x length must equal Cols.
func (m *Dense) MulVec(x []float64) []float64 {
	if len(x) != m.cols {
		panic("mathx: MulVec dimension mismatch")
	}
	y := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	return y
}

// SolveLU solves A·x = b in place using Gaussian elimination with partial
// pivoting. A and b are destroyed; x aliases b on return.
func SolveLU(a *Dense, b []float64) ([]float64, error) {
	n := a.rows
	if a.cols != n || len(b) != n {
		return nil, fmt.Errorf("mathx: SolveLU wants square system, got %dx%d with rhs %d", a.rows, a.cols, len(b))
	}
	const tiny = 1e-300
	for k := 0; k < n; k++ {
		// Partial pivot: find the largest magnitude in column k.
		p, best := k, math.Abs(a.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(a.At(i, k)); v > best {
				p, best = i, v
			}
		}
		if best < tiny {
			return nil, ErrSingular
		}
		if p != k {
			for j := k; j < n; j++ {
				a.data[k*n+j], a.data[p*n+j] = a.data[p*n+j], a.data[k*n+j]
			}
			b[k], b[p] = b[p], b[k]
		}
		pivot := a.At(k, k)
		for i := k + 1; i < n; i++ {
			f := a.At(i, k) / pivot
			if f == 0 {
				continue
			}
			a.Set(i, k, 0)
			for j := k + 1; j < n; j++ {
				a.Add(i, j, -f*a.At(k, j))
			}
			b[i] -= f * b[k]
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for j := i + 1; j < n; j++ {
			s -= a.At(i, j) * b[j]
		}
		b[i] = s / a.At(i, i)
	}
	return b, nil
}

// SolveTridiag solves a tridiagonal system with the Thomas algorithm.
// lower, diag and upper are the sub-, main and super-diagonals; lower[0] and
// upper[n-1] are ignored. All slices must have length n. The inputs are not
// modified.
func SolveTridiag(lower, diag, upper, rhs []float64) ([]float64, error) {
	n := len(diag)
	if len(lower) != n || len(upper) != n || len(rhs) != n {
		return nil, fmt.Errorf("mathx: SolveTridiag length mismatch (%d,%d,%d,%d)", len(lower), len(diag), len(upper), len(rhs))
	}
	cp := make([]float64, n)
	dp := make([]float64, n)
	if diag[0] == 0 {
		return nil, ErrSingular
	}
	cp[0] = upper[0] / diag[0]
	dp[0] = rhs[0] / diag[0]
	for i := 1; i < n; i++ {
		den := diag[i] - lower[i]*cp[i-1]
		if den == 0 {
			return nil, ErrSingular
		}
		cp[i] = upper[i] / den
		dp[i] = (rhs[i] - lower[i]*dp[i-1]) / den
	}
	x := make([]float64, n)
	x[n-1] = dp[n-1]
	for i := n - 2; i >= 0; i-- {
		x[i] = dp[i] - cp[i]*x[i+1]
	}
	return x, nil
}
