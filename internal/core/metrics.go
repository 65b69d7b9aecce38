package core

import (
	"deepheal/internal/bti"
	"deepheal/internal/engine"
	"deepheal/internal/mathx"
	"deepheal/internal/obs"
	"deepheal/internal/sensor"
	"deepheal/internal/thermal"
)

// Package-level instruments for the simulator itself: step and stage
// latency and checkpoint traffic. Nil (free no-ops) until EnableMetrics
// installs live ones.
var (
	metStepSeconds  *obs.Histogram
	metStepsTotal   *obs.Counter
	metStageSeconds [6]*obs.Histogram // indexed like stageNames

	metCkptSaves        *obs.Counter
	metCkptRestores     *obs.Counter
	metCkptSaveSeconds  *obs.Histogram
	metCkptRestSeconds  *obs.Histogram
	metCkptLastBytes    *obs.Gauge
	metCkptBytesWritten *obs.Counter
)

// EnableMetrics wires the whole simulation stack into r: the simulator's
// own step/stage/checkpoint series plus the bti kernel cache, the sparse
// solvers, the thermal operators, the engine pool and the sensors. One call
// from a CLI or test instruments everything a running simulation touches.
// Pass nil to disable again. Call before simulators are built or stepped —
// installation is not synchronised with running simulators, and the
// instruments are process-global (one registry at a time).
func EnableMetrics(r *obs.Registry) {
	bti.EnableMetrics(r)
	mathx.EnableMetrics(r)
	thermal.EnableMetrics(r)
	engine.EnableMetrics(r)
	sensor.EnableMetrics(r)

	metStepSeconds = r.Histogram("deepheal_sim_step_seconds",
		"wall time of one full simulation step (all six stages)", nil)
	metStepsTotal = r.Counter("deepheal_sim_steps_total",
		"simulation steps completed")
	for k, name := range stageNames {
		metStageSeconds[k] = r.Histogram(
			`deepheal_engine_stage_seconds{stage="`+string(name)+`"}`,
			"wall time of one simulation step stage", nil)
	}

	metCkptSaves = r.Counter("deepheal_checkpoint_saves_total",
		"system snapshots taken")
	metCkptRestores = r.Counter("deepheal_checkpoint_restores_total",
		"system snapshots restored")
	metCkptSaveSeconds = r.Histogram("deepheal_checkpoint_save_seconds",
		"wall time of one system snapshot", nil)
	metCkptRestSeconds = r.Histogram("deepheal_checkpoint_restore_seconds",
		"wall time of one snapshot restore", nil)
	metCkptLastBytes = r.Gauge("deepheal_checkpoint_last_bytes",
		"size of the most recent snapshot blob")
	metCkptBytesWritten = r.Counter("deepheal_checkpoint_bytes_total",
		"cumulative snapshot bytes produced")
}
