package mathx

import (
	"fmt"
	"math"
	"sort"
)

// Coord is one (row, col, value) triplet of a sparse matrix under assembly.
type Coord struct {
	Row, Col int
	Val      float64
}

// CSR is a compressed-sparse-row matrix. It is immutable once built.
type CSR struct {
	n       int
	rowPtr  []int
	colIdx  []int
	values  []float64
	diagIdx []int // index into values of the diagonal entry per row, -1 if absent
}

// NewCSR assembles an n×n sparse matrix from coordinate triplets. Duplicate
// (row, col) entries are summed, which makes stamped assembly (finite
// differences, nodal analysis) natural.
func NewCSR(n int, entries []Coord) *CSR {
	es := make([]Coord, len(entries))
	copy(es, entries)
	sort.Slice(es, func(i, j int) bool {
		if es[i].Row != es[j].Row {
			return es[i].Row < es[j].Row
		}
		return es[i].Col < es[j].Col
	})
	m := &CSR{n: n, rowPtr: make([]int, n+1), diagIdx: make([]int, n)}
	for i := range m.diagIdx {
		m.diagIdx[i] = -1
	}
	for i := 0; i < len(es); {
		r, c := es[i].Row, es[i].Col
		if r < 0 || r >= n || c < 0 || c >= n {
			panic(fmt.Sprintf("mathx: CSR entry (%d,%d) out of range for n=%d", r, c, n))
		}
		v := 0.0
		for i < len(es) && es[i].Row == r && es[i].Col == c {
			v += es[i].Val
			i++
		}
		if r == c {
			m.diagIdx[r] = len(m.values)
		}
		m.colIdx = append(m.colIdx, c)
		m.values = append(m.values, v)
		m.rowPtr[r+1] = len(m.values)
	}
	// Rows with no entries keep the running prefix.
	for r := 1; r <= n; r++ {
		if m.rowPtr[r] < m.rowPtr[r-1] {
			m.rowPtr[r] = m.rowPtr[r-1]
		}
	}
	return m
}

// N reports the matrix dimension.
func (m *CSR) N() int { return m.n }

// MulVec computes y = M·x.
func (m *CSR) MulVec(x, y []float64) {
	if len(x) != m.n || len(y) != m.n {
		panic("mathx: CSR MulVec dimension mismatch")
	}
	for r := 0; r < m.n; r++ {
		var s float64
		for k := m.rowPtr[r]; k < m.rowPtr[r+1]; k++ {
			s += m.values[k] * x[m.colIdx[k]]
		}
		y[r] = s
	}
}

// CGOptions configures the conjugate gradient solver.
type CGOptions struct {
	// Tol is the relative residual target; 0 means 1e-10.
	Tol float64
}

// SolveCG solves M·x = b for a symmetric positive-definite M using Jacobi-
// preconditioned conjugate gradients. x0 may be nil for a zero start.
// It returns the solution and the achieved relative residual.
//
// Each call builds a throwaway CGSolver; callers solving repeatedly against
// the same matrix should hold a CGSolver to reuse the preconditioner and
// iteration scratch.
func (m *CSR) SolveCG(b, x0 []float64, opt CGOptions) ([]float64, float64, error) {
	if len(b) != m.n {
		return nil, 0, fmt.Errorf("mathx: SolveCG rhs length %d, want %d", len(b), m.n)
	}
	s, err := NewCGSolver(m)
	if err != nil {
		return nil, 0, err
	}
	return s.Solve(b, x0, opt)
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}
