package bti

import "deepheal/internal/obs"

// Package-level instruments for the condition-keyed kernel cache. They are
// nil (free no-ops) until EnableMetrics installs live ones; the hot paths in
// kernel.go call them unconditionally.
var (
	metKernelHits     *obs.Counter
	metKernelMisses   *obs.Counter
	metKernelBuilds   *obs.Counter
	metKernelRefusals *obs.Counter
	metKernelResident *obs.Gauge
	metSeparableSweep *obs.Counter

	metGridHits      *obs.Counter
	metGridBuilds    *obs.Counter
	metGridEvictions *obs.Counter
	metGridEntries   *obs.Gauge

	metBatchGroups  *obs.Counter
	metBatchDevices *obs.Counter
	metPhaseKernels *obs.Counter
)

// EnableMetrics registers the package's instruments in r and routes the
// kernel-cache hot paths through them. Pass nil to disable again. Call it
// before devices start stepping — installation is not synchronised with
// concurrent sweeps. The resident-floats gauge aggregates across every
// shared grid in the process.
func EnableMetrics(r *obs.Registry) {
	metKernelHits = r.Counter("deepheal_bti_kernel_hits_total",
		"evolution substeps served by a cached condition-keyed kernel")
	metKernelMisses = r.Counter("deepheal_bti_kernel_misses_total",
		"kernel lookups that found no cached kernel for the condition key "+
			"(a lookup answered on the read lock because the cache is full counts here only)")
	metKernelBuilds = r.Counter("deepheal_bti_kernel_builds_total",
		"evolution kernels materialised (O(nc*ne) builds)")
	metKernelRefusals = r.Counter("deepheal_bti_kernel_admission_refusals_total",
		"kernel promotions refused under the write lock because the float budget filled; "+
			"lookups refused on the read lock once the cache is full count as misses, not here")
	metKernelResident = r.Gauge("deepheal_bti_kernel_resident_floats",
		"float64 words held by cached kernels across all grids")
	metSeparableSweep = r.Counter("deepheal_bti_separable_sweeps_total",
		"device substeps served by the direct separable sweep")
	metGridHits = r.Counter("deepheal_bti_grid_hits_total",
		"device constructions served by an already-resident shared CET grid")
	metGridBuilds = r.Counter("deepheal_bti_grid_builds_total",
		"CET grids discretised (cache misses and private overflow grids)")
	metGridEvictions = r.Counter("deepheal_bti_grid_evictions_total",
		"idle shared grids evicted to admit a new corner")
	metGridEntries = r.Gauge("deepheal_bti_grid_entries",
		"distinct Params with a resident shared CET grid")
	metBatchGroups = r.Counter("deepheal_bti_batch_groups_total",
		"multi-device shared-grid groups advanced by BatchApply")
	metBatchDevices = r.Counter("deepheal_bti_batch_devices_total",
		"devices advanced through batched group sweeps")
	metPhaseKernels = r.Counter("deepheal_bti_phase_kernels_total",
		"pooled scratch kernels filled to serve one uncached phase (every device, every substep of its length)")
}
