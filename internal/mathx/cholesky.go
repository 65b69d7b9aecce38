package mathx

import (
	"errors"
	"fmt"
	"math"

	"deepheal/internal/faultinject"
)

// ErrNotSPD is returned when a matrix handed to the Cholesky factorization
// is not symmetric positive definite (asymmetric entries, a non-positive
// pivot).
var ErrNotSPD = errors.New("mathx: matrix is not symmetric positive definite")

// cholMaxResidual bounds a direct solve's verified relative residual
// ‖b − A·x‖/‖b‖. Backward-stable triangular sweeps stay far below it; a miss
// means the operator is too ill-conditioned for the factor to be trusted.
const cholMaxResidual = 1e-5

// CholeskySolver is a sparse Cholesky factorization A = L·Lᵀ of a symmetric
// positive-definite CSR matrix, stored in envelope (profile) form: row i of
// L keeps the dense run of columns [first[i], i]. The envelope of L equals
// the envelope of A — profile factorization creates no fill outside it — so
// banded operators (finite-difference grids in natural ordering) stay
// compact. Factor once, then each Solve is two triangular sweeps, O(env)
// flops with no iteration, plus one product with A that verifies the
// residual. A solve allocates nothing.
//
// The solver is immutable after construction except for the solve scratch,
// so it is not safe for concurrent Solve calls; the returned solution slice
// is reused by the next Solve.
type CholeskySolver struct {
	n      int
	first  []int     // first[i]: leftmost stored column of row i
	rowPtr []int     // vals[rowPtr[i]:rowPtr[i+1]] holds row i, diagonal last
	vals   []float64 // L entries, row-major inside the envelope
	m      *CSR      // the factored matrix, for the residual check

	y, x, res []float64 // solve scratch
}

// NewCholesky factors m. It returns ErrNotSPD when m is asymmetric or has a
// non-positive pivot (not positive definite).
func NewCholesky(m *CSR) (*CholeskySolver, error) {
	n := m.n
	if n == 0 {
		return nil, fmt.Errorf("%w: empty matrix", ErrNotSPD)
	}
	if !m.symmetric() {
		metCholRejects.Inc()
		return nil, fmt.Errorf("%w: asymmetric entries", ErrNotSPD)
	}
	s := &CholeskySolver{
		n:      n,
		first:  make([]int, n),
		rowPtr: make([]int, n+1),
		m:      m,
		y:      make([]float64, n),
		x:      make([]float64, n),
		res:    make([]float64, n),
	}
	// Envelope: row i spans from its leftmost structural entry to the
	// diagonal. Entries above the diagonal are mirrored by symmetry, so the
	// lower-triangular profile alone defines the factor.
	env := 0
	for i := 0; i < n; i++ {
		fst := i
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			if c := m.colIdx[k]; c < fst {
				fst = c
			}
		}
		s.first[i] = fst
		env += i - fst + 1
		s.rowPtr[i+1] = env
	}
	s.vals = make([]float64, env)

	// Scatter A's lower triangle into the envelope, then factor in place with
	// the row-bordering method:
	//
	//	L[i][j] = (A[i][j] − Σ_k L[i][k]·L[j][k]) / L[j][j]   (k < j in both profiles)
	//	L[i][i] = sqrt(A[i][i] − Σ_k L[i][k]²)
	for i := 0; i < n; i++ {
		base := s.rowPtr[i] - s.first[i] // vals[base+c] is L[i][c]
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			if c := m.colIdx[k]; c <= i {
				s.vals[base+c] = m.values[k]
			}
		}
	}
	for i := 0; i < n; i++ {
		base := s.rowPtr[i] - s.first[i]
		for j := s.first[i]; j < i; j++ {
			jBase := s.rowPtr[j] - s.first[j]
			lo := s.first[i]
			if s.first[j] > lo {
				lo = s.first[j]
			}
			sum := s.vals[base+j]
			for k := lo; k < j; k++ {
				sum -= s.vals[base+k] * s.vals[jBase+k]
			}
			s.vals[base+j] = sum / s.vals[jBase+j]
		}
		sum := s.vals[base+i]
		for k := s.first[i]; k < i; k++ {
			sum -= s.vals[base+k] * s.vals[base+k]
		}
		if sum <= 0 || math.IsNaN(sum) {
			metCholRejects.Inc()
			return nil, fmt.Errorf("%w: non-positive pivot at row %d", ErrNotSPD, i)
		}
		s.vals[base+i] = math.Sqrt(sum)
	}
	metCholFactors.Inc()
	return s, nil
}

// Solve solves A·x = b by forward/backward substitution through the factor,
// then verifies the relative residual ‖b − A·x‖/‖b‖: a NaN or a miss of
// cholMaxResidual is an error, never a silently wrong answer. Exactly one
// SiteCGDiverge probe fires per call; an injected divergence fails the solve
// outright. The returned slice is internal scratch, valid until the next
// Solve.
func (s *CholeskySolver) Solve(b []float64) ([]float64, error) {
	if len(b) != s.n {
		return nil, fmt.Errorf("mathx: Cholesky rhs length %d, want %d", len(b), s.n)
	}
	metCholSolves.Inc()
	if err := faultinject.ErrorAt(faultinject.SiteCGDiverge, ""); err != nil {
		metCholFailures.Inc()
		return nil, fmt.Errorf("mathx: direct solve failed: %w", err)
	}
	y, x := s.y, s.x
	// L·y = b
	for i := 0; i < s.n; i++ {
		base := s.rowPtr[i] - s.first[i]
		sum := b[i]
		for k := s.first[i]; k < i; k++ {
			sum -= s.vals[base+k] * y[k]
		}
		y[i] = sum / s.vals[base+i]
	}
	// Lᵀ·x = y: process rows bottom-up, scattering each row's contribution
	// to the columns it covers — a pure row-major sweep over the envelope.
	copy(x, y)
	for i := s.n - 1; i >= 0; i-- {
		base := s.rowPtr[i] - s.first[i]
		x[i] /= s.vals[base+i]
		xi := x[i]
		for k := s.first[i]; k < i; k++ {
			x[k] -= s.vals[base+k] * xi
		}
	}
	if res := s.residual(b); math.IsNaN(res) || res > cholMaxResidual {
		metCholFailures.Inc()
		return nil, fmt.Errorf("mathx: direct solve residual %.3g exceeds %g", res, cholMaxResidual)
	}
	return x, nil
}

// residual returns ‖b − A·x‖/‖b‖ for the current solution x (0 for a zero
// rhs).
func (s *CholeskySolver) residual(b []float64) float64 {
	normB := Norm2(b)
	if normB == 0 {
		return 0
	}
	s.m.MulVec(s.x, s.res)
	for i := range s.res {
		s.res[i] = b[i] - s.res[i]
	}
	return Norm2(s.res) / normB
}

// symmetric reports whether every stored entry has a matching transpose
// entry of equal value. O(nnz·log(row width)) via binary search per entry.
func (m *CSR) symmetric() bool {
	for r := 0; r < m.n; r++ {
		for k := m.rowPtr[r]; k < m.rowPtr[r+1]; k++ {
			c := m.colIdx[k]
			if c == r {
				continue
			}
			if v, ok := m.at(c, r); !ok || v != m.values[k] {
				return false
			}
		}
	}
	return true
}

// at returns the stored entry (r, c), reporting whether it exists. Columns
// within a row are sorted by construction, so a binary search suffices.
func (m *CSR) at(r, c int) (float64, bool) {
	lo, hi := m.rowPtr[r], m.rowPtr[r+1]
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case m.colIdx[mid] < c:
			lo = mid + 1
		case m.colIdx[mid] > c:
			hi = mid
		default:
			return m.values[mid], true
		}
	}
	return 0, false
}
