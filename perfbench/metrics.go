package main

import (
	"deepheal/internal/engine"
	"deepheal/internal/experiments"
	"deepheal/internal/obs"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// spec names a metric and its unit.
type spec struct{ name, unit string }

// endToEnd is printed by untraced runs, the same names on every workload.
var endToEnd = []spec{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"query_p50_ms", "ms"},
	{"query_tail_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"success_rate", "frac"},
}

// counterLayers maps per-layer count metrics onto the registry counters
// the program already exports. Values are per round.
var counterLayers = []struct{ name, counter string }{
	{"bti.kernel_hits", "deepheal_bti_kernel_hits_total"},
	{"bti.kernel_misses", "deepheal_bti_kernel_misses_total"},
	{"bti.kernel_builds", "deepheal_bti_kernel_builds_total"},
	{"bti.kernel_refusals", "deepheal_bti_kernel_admission_refusals_total"},
	{"bti.sweeps", "deepheal_bti_separable_sweeps_total"},
	{"bti.batch_devices", "deepheal_bti_batch_devices_total"},
	{"bti.grid_builds", "deepheal_bti_grid_builds_total"},
	{"engine.pool_items", "deepheal_engine_pool_items_total"},
	{"engine.pool_parallel_runs", "deepheal_engine_pool_parallel_runs_total"},
	{"engine.pool_serial_runs", "deepheal_engine_pool_serial_runs_total"},
	{"mathx.cholesky_solves", "deepheal_cholesky_solves_total"},
	{"mathx.cg_iterations", "deepheal_cg_iterations_total"},
	{"thermal.settles", "deepheal_thermal_settles_total"},
	{"sensor.ro_reads", "deepheal_sensor_ro_reads_total"},
	{"campaign.points_run", "deepheal_campaign_points_run_total"},
	{"campaign.points_memo", "deepheal_campaign_points_memo_total"},
	{"campaign.journal_records", "deepheal_campaign_points_journaled_total"},
	{"fleet.suspends", "deepheal_fleet_suspends_total"},
	{"fleet.rehydrates", "deepheal_fleet_rehydrates_total"},
	{"core.checkpoint_bytes", "deepheal_checkpoint_bytes_total"},
}

// histLayers maps per-layer time metrics onto registry histograms: the
// mean of one observation in milliseconds over the round.
var histLayers = []struct{ name, hist string }{
	{"core.checkpoint_save_ms", "deepheal_checkpoint_save_seconds"},
	{"core.checkpoint_restore_ms", "deepheal_checkpoint_restore_seconds"},
	{"fleet.batch_ms", "deepheal_fleet_batch_seconds"},
}

var stages = []engine.StageName{
	engine.StagePlan, engine.StageElectrical, engine.StageThermal,
	engine.StageWearout, engine.StageSense, engine.StageRecord,
}

func stageHist(st engine.StageName) string {
	return `deepheal_engine_stage_seconds{stage="` + string(st) + `"}`
}

// perLayer lists every metric a traced run prints, in report order.
func perLayer() []spec {
	var out []spec
	for _, st := range stages {
		out = append(out, spec{"core." + string(st) + "_ms", "ms"})
	}
	for _, h := range histLayers {
		out = append(out, spec{h.name, "ms"})
	}
	for _, c := range counterLayers {
		unit := "count"
		if c.name == "core.checkpoint_bytes" {
			unit = "bytes"
		}
		out = append(out, spec{c.name, unit})
	}
	out = append(out,
		spec{"bti.kernel_hit_ratio", "ratio"},
		spec{"fleet.snapshot_bytes", "bytes"},
		spec{"fleet.http_self_ms", "ms"},
		spec{"campaign.point_busy_s", "s"},
		spec{"campaign.pool_efficiency", "ratio"},
		spec{"campaign.lpt_makespan_s", "s"},
	)
	for _, id := range experiments.IDs() {
		out = append(out, spec{"experiments." + id + "_s", "s"})
	}
	return append(out, spec{"trace.overhead_frac", "frac"})
}

// layerValues turns the registry change over one round into per-layer
// values. Metrics a workload never touches come out as 0.
func layerValues(before, after *obs.Snapshot) map[string]float64 {
	out := map[string]float64{}
	histMS := func(name string) float64 {
		a, b := after.Histograms[name], before.Histograms[name]
		if n := a.Count - b.Count; n > 0 {
			return (a.Sum - b.Sum) / float64(n) * 1e3
		}
		return 0
	}
	for _, st := range stages {
		out["core."+string(st)+"_ms"] = histMS(stageHist(st))
	}
	for _, h := range histLayers {
		out[h.name] = histMS(h.hist)
	}
	for _, c := range counterLayers {
		out[c.name] = float64(after.Counters[c.counter] - before.Counters[c.counter])
	}
	if lookups := out["bti.kernel_hits"] + out["bti.kernel_misses"]; lookups > 0 {
		out["bti.kernel_hit_ratio"] = out["bti.kernel_hits"] / lookups
	}
	out["fleet.snapshot_bytes"] = after.Gauges["deepheal_fleet_snapshot_resident_bytes"]
	return out
}
