package mathx

import (
	"fmt"
	"math"

	"deepheal/internal/faultinject"
)

// cgMaxIterPerDim bounds a CG solve at this many iterations per unknown.
const cgMaxIterPerDim = 10

// CGSolver holds the Jacobi preconditioner and iteration scratch for
// repeated conjugate-gradient solves against one immutable CSR matrix.
// Building the solver inverts the diagonal once; each Solve then allocates
// nothing. The solver is not safe for concurrent use, and the returned
// solution slice is reused by the next Solve — copy it out if it must
// outlive the solver's next call.
type CGSolver struct {
	m   *CSR
	inv []float64 // Jacobi preconditioner (1/diag), computed once

	x, r, z, p, ap []float64 // iteration scratch
}

// NewCGSolver prepares a reusable solver for m. It fails with ErrSingular
// if the matrix has a zero diagonal entry (the Jacobi preconditioner is
// undefined there).
func NewCGSolver(m *CSR) (*CGSolver, error) {
	n := m.n
	s := &CGSolver{
		m:   m,
		inv: make([]float64, n),
		x:   make([]float64, n),
		r:   make([]float64, n),
		z:   make([]float64, n),
		p:   make([]float64, n),
		ap:  make([]float64, n),
	}
	for i := 0; i < n; i++ {
		d := 0.0
		if k := m.diagIdx[i]; k >= 0 {
			d = m.values[k]
		}
		if d == 0 {
			return nil, ErrSingular
		}
		s.inv[i] = 1 / d
	}
	return s, nil
}

// Solve solves M·x = b with Jacobi-preconditioned conjugate gradients.
// x0 may be nil for a zero start. It returns the solution (an internal
// buffer, valid until the next Solve) and the achieved relative residual.
func (s *CGSolver) Solve(b, x0 []float64, opt CGOptions) ([]float64, float64, error) {
	if err := faultinject.ErrorAt(faultinject.SiteCGDiverge, ""); err != nil {
		metCGSolves.Inc()
		metCGFailures.Inc()
		return nil, math.Inf(1), fmt.Errorf("mathx: CG did not converge: %w", err)
	}
	return s.solve(b, x0, opt)
}

// solve is Solve without the fault-injection probe, for composite solvers
// (SPDSolver) that own the probe themselves — exactly one probe must fire
// per logical solve, however many methods it cascades through.
func (s *CGSolver) solve(b, x0 []float64, opt CGOptions) ([]float64, float64, error) {
	n := s.m.n
	if len(b) != n {
		return nil, 0, fmt.Errorf("mathx: SolveCG rhs length %d, want %d", len(b), n)
	}
	maxIter := cgMaxIterPerDim * n
	tol := opt.Tol
	if tol <= 0 {
		tol = 1e-10
	}
	x := s.x
	if x0 != nil {
		copy(x, x0)
	} else {
		for i := range x {
			x[i] = 0
		}
	}
	inv, r, z, p, ap := s.inv, s.r, s.z, s.p, s.ap
	s.m.MulVec(x, r)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	normB := Norm2(b)
	if normB == 0 {
		return x, 0, nil
	}
	for i := range z {
		z[i] = inv[i] * r[i]
	}
	copy(p, z)
	rz := Dot(r, z)
	res := Norm2(r) / normB
	iters := 0
	for ; iters < maxIter && res > tol; iters++ {
		s.m.MulVec(p, ap)
		den := Dot(p, ap)
		if den == 0 {
			break
		}
		alpha := rz / den
		for i := range x {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
		}
		for i := range z {
			z[i] = inv[i] * r[i]
		}
		rzNew := Dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
		res = Norm2(r) / normB
	}
	metCGSolves.Inc()
	metCGIters.Add(uint64(iters))
	if math.IsNaN(res) || res > math.Sqrt(tol) {
		metCGFailures.Inc()
		return x, res, fmt.Errorf("mathx: CG did not converge (residual %.3g)", res)
	}
	return x, res, nil
}
