package mathx

import (
	"fmt"
	"math"

	"deepheal/internal/faultinject"
)

// SPDSolver solves repeated systems against one immutable symmetric
// positive-definite CSR matrix, picking the cheapest sound method: a sparse
// Cholesky factorization when the matrix admits one (factor once at
// construction, two triangular sweeps per Solve), with Jacobi-preconditioned
// CG as the documented fallback — both for matrices the factorization
// rejects (asymmetric, indefinite, envelope over budget) and for any direct
// solve whose verified residual misses the tolerance. The Solve signature
// matches CGSolver, so callers switch by swapping the constructor.
//
// Fault injection: exactly one SiteCGDiverge probe fires per Solve, in
// whichever mode the solver runs — an injected divergence makes the solve
// fail outright (no silent rescue), and the caller surfaces the error.
//
// Not safe for concurrent use; the returned solution slice is reused by the
// next Solve.
type SPDSolver struct {
	chol *CholeskySolver // nil: CG mode
	cg   *CGSolver
	m    *CSR
	res  []float64 // residual-check scratch (direct mode)
}

// NewSPDSolver prepares a solver for m. The CG fallback is always built (it
// fails with ErrSingular on a zero diagonal); the factorization is
// attempted on top and silently skipped when m is not SPD or too wide.
func NewSPDSolver(m *CSR) (*SPDSolver, error) {
	cg, err := NewCGSolver(m)
	if err != nil {
		return nil, err
	}
	s := &SPDSolver{cg: cg, m: m}
	if chol, err := NewCholesky(m); err == nil {
		s.chol = chol
		s.res = make([]float64, m.n)
	}
	return s, nil
}

// Direct reports whether solves run through the Cholesky factor (true) or
// the CG fallback (false).
func (s *SPDSolver) Direct() bool { return s.chol != nil }

// Solve solves M·x = b. In direct mode the triangular solve's residual is
// verified against the same criterion CG uses — a miss (a pathological
// conditioning case) falls back to CG transparently. x0 seeds only the CG
// path; the direct solve needs no warm start. The returned slice is internal
// scratch, valid until the next Solve.
func (s *SPDSolver) Solve(b, x0 []float64, opt CGOptions) ([]float64, float64, error) {
	if s.chol == nil {
		return s.cg.Solve(b, x0, opt)
	}
	if err := faultinject.ErrorAt(faultinject.SiteCGDiverge, ""); err != nil {
		metCholSolves.Inc()
		metCholFallbacks.Inc()
		return nil, math.Inf(1), fmt.Errorf("mathx: direct solve failed: %w", err)
	}
	x, err := s.chol.Solve(b)
	if err != nil {
		return nil, 0, err
	}
	tol := opt.Tol
	if tol <= 0 {
		tol = 1e-10
	}
	res := s.residual(x, b)
	if math.IsNaN(res) || res > math.Sqrt(tol) {
		metCholFallbacks.Inc()
		return s.cg.solve(b, x0, opt)
	}
	return x, res, nil
}

// residual returns ‖b − M·x‖/‖b‖ (0 for a zero rhs).
func (s *SPDSolver) residual(x, b []float64) float64 {
	normB := Norm2(b)
	if normB == 0 {
		return 0
	}
	s.m.MulVec(x, s.res)
	for i := range s.res {
		s.res[i] = b[i] - s.res[i]
	}
	return Norm2(s.res) / normB
}
