package thermal

import "deepheal/internal/obs"

// Package-level instruments for the cached thermal operators. Nil (free
// no-ops) until EnableMetrics installs live ones. The factorization and
// solve counts themselves live in internal/mathx.
var (
	metOperatorBuilds *obs.Counter
	metSettles        *obs.Counter
)

// EnableMetrics registers the package's instruments in r. Pass nil to
// disable again. Call before grids start solving; installation is not
// synchronised with concurrent solves.
func EnableMetrics(r *obs.Registry) {
	metOperatorBuilds = r.Counter("deepheal_thermal_operator_builds_total",
		"thermal operator (CSR + Cholesky factor) assemblies; cached operators make these rare")
	metSettles = r.Counter("deepheal_thermal_settles_total",
		"steady-state thermal solves")
}
