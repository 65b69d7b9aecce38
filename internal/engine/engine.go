// Package engine is the reusable simulation substrate underneath the
// system-level Deep Healing scheduler: a bounded worker pool whose sharded
// stepping is bit-identical to a serial loop, the names of a simulation
// step's stages, and a versioned whole-system snapshot container for
// checkpoint/resume. The physical models (BTI devices, EM segments, thermal
// and power grids, sensors) each serialise their own state; the container
// only frames the payloads. The engine knows nothing about scheduling
// policies or the paper's experiments.
package engine

// StageName identifies one phase of a simulation step.
type StageName string

// The canonical stage order of a system simulation step.
const (
	// StagePlan asks the scheduling policy for this step's decision.
	StagePlan StageName = "plan"
	// StageElectrical solves the power-delivery network.
	StageElectrical StageName = "electrical"
	// StageThermal solves the die temperature field.
	StageThermal StageName = "thermal"
	// StageWearout advances the per-core/per-segment wearout state (the
	// embarrassingly parallel part, sharded across the pool).
	StageWearout StageName = "wearout"
	// StageSense samples the wearout sensors for the next observation.
	StageSense StageName = "sense"
	// StageRecord assembles the per-step statistics.
	StageRecord StageName = "record"
)
