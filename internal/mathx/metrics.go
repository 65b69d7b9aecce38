package mathx

import "deepheal/internal/obs"

// Package-level instruments for the conjugate-gradient solver. Nil (free
// no-ops) until EnableMetrics installs live ones; CGSolver.Solve calls them
// unconditionally. Every CG consumer in the repo — the thermal operators,
// the PDN solve, ad-hoc CSR.SolveCG calls — funnels through CGSolver, so
// these series cover all of them.
var (
	metCGSolves   *obs.Counter
	metCGIters    *obs.Counter
	metCGFailures *obs.Counter

	metCholFactors   *obs.Counter
	metCholRejects   *obs.Counter
	metCholSolves    *obs.Counter
	metCholFallbacks *obs.Counter
)

// EnableMetrics registers the package's instruments in r. Pass nil to
// disable again. Call before solvers start running; installation is not
// synchronised with concurrent solves.
func EnableMetrics(r *obs.Registry) {
	metCGSolves = r.Counter("deepheal_cg_solves_total",
		"conjugate-gradient solves completed (all CSR consumers)")
	metCGIters = r.Counter("deepheal_cg_iterations_total",
		"conjugate-gradient iterations across all solves")
	metCGFailures = r.Counter("deepheal_cg_convergence_failures_total",
		"CG solves that missed the convergence criterion")
	metCholFactors = r.Counter("deepheal_cholesky_factorizations_total",
		"sparse Cholesky factorizations completed")
	metCholRejects = r.Counter("deepheal_cholesky_rejections_total",
		"factorization attempts rejected (asymmetric, indefinite or over budget)")
	metCholSolves = r.Counter("deepheal_cholesky_solves_total",
		"triangular solves through a Cholesky factor")
	metCholFallbacks = r.Counter("deepheal_cholesky_fallbacks_total",
		"direct solves that failed (injected divergence) or fell back to CG (residual miss)")
}
