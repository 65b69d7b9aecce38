package engine

import "deepheal/internal/obs"

// Package-level instruments for the worker pool. Nil counters (free no-ops)
// until EnableMetrics installs live ones; the pool hot paths consult them
// unconditionally.
var (
	metPoolSerialRuns   *obs.Counter
	metPoolParallelRuns *obs.Counter
	metPoolItems        *obs.Counter
)

// EnableMetrics registers the package's instruments in r. Pass nil to
// disable again. Call before pools start dispatching; installation is not
// synchronised with concurrent dispatches.
func EnableMetrics(r *obs.Registry) {
	metPoolSerialRuns = r.Counter("deepheal_engine_pool_serial_runs_total",
		"pool dispatches that ran on the calling goroutine")
	metPoolParallelRuns = r.Counter("deepheal_engine_pool_parallel_runs_total",
		"pool dispatches sharded across worker goroutines")
	metPoolItems = r.Counter("deepheal_engine_pool_items_total",
		"index-range items dispatched through the pool")
}
