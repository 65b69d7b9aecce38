package mathx

import "deepheal/internal/obs"

// Package-level instruments for the two sparse solvers. Nil (free no-ops)
// until EnableMetrics installs live ones; CGSolver.Solve and
// CholeskySolver.Solve call them unconditionally. The PDN solves through
// CGSolver and the thermal grid through CholeskySolver, so these series
// cover every sparse solve in the repo.
var (
	metCGSolves   *obs.Counter
	metCGIters    *obs.Counter
	metCGFailures *obs.Counter

	metCholFactors  *obs.Counter
	metCholRejects  *obs.Counter
	metCholSolves   *obs.Counter
	metCholFailures *obs.Counter
)

// EnableMetrics registers the package's instruments in r. Pass nil to
// disable again. Call before solvers start running; installation is not
// synchronised with concurrent solves.
func EnableMetrics(r *obs.Registry) {
	metCGSolves = r.Counter("deepheal_cg_solves_total",
		"conjugate-gradient solves completed")
	metCGIters = r.Counter("deepheal_cg_iterations_total",
		"conjugate-gradient iterations across all solves")
	metCGFailures = r.Counter("deepheal_cg_convergence_failures_total",
		"CG solves that missed the convergence criterion")
	metCholFactors = r.Counter("deepheal_cholesky_factorizations_total",
		"sparse Cholesky factorizations completed")
	metCholRejects = r.Counter("deepheal_cholesky_rejections_total",
		"factorization attempts rejected (asymmetric or indefinite)")
	metCholSolves = r.Counter("deepheal_cholesky_solves_total",
		"triangular solves through a Cholesky factor")
	metCholFailures = r.Counter("deepheal_cholesky_failures_total",
		"direct solves that failed (injected divergence or residual miss)")
}
