// Package deepheal is a from-scratch Go reproduction of
//
//	Xinfei Guo and Mircea R. Stan, "Deep Healing: Ease the BTI and EM
//	Wearout Crisis by Activating Recovery", DSN/SELSE 2017.
//
// It provides physics-based simulators for the two dominant wearout
// mechanisms the paper targets — Bias Temperature Instability (BTI) in
// transistors (a capture–emission-time trap-map model) and electromigration
// (EM) in on-chip wires (the Korhonen stress-evolution PDE) — plus the
// paper's proposed remedies built on top of them: active recovery (reverse
// bias / reverse current), accelerated recovery (elevated temperature), the
// assist circuitry of Fig. 8 simulated with an internal SPICE-like MNA
// engine, and the system-level Deep Healing scheduler that inserts recovery
// intervals across a many-core die.
//
// The package re-exports the stable surface of the internal simulator
// packages so downstream users work with one import:
//
//	dev := deepheal.MustNewBTIDevice(deepheal.DefaultBTIParams())
//	dev.Apply(deepheal.StressAccel, deepheal.Hours(24))
//	healed := dev.RecoveryFraction(deepheal.RecoverDeep, deepheal.Hours(6))
//
// Every table and figure of the paper's evaluation can be regenerated via
// RunExperiment; see EXPERIMENTS.md for the recorded paper-vs-measured
// comparison and cmd/deepheal for the command-line harness.
package deepheal

import (
	"context"
	"time"

	"deepheal/internal/assist"
	"deepheal/internal/bti"
	"deepheal/internal/campaign"
	"deepheal/internal/core"
	"deepheal/internal/em"
	"deepheal/internal/engine"
	"deepheal/internal/experiments"
	"deepheal/internal/lifetime"
	"deepheal/internal/rngx"
	"deepheal/internal/sensor"
	"deepheal/internal/units"
	"deepheal/internal/workload"
)

// BTI wearout modelling (the paper's §III-C experiments).
type (
	// BTIParams holds the calibrated BTI model parameters.
	BTIParams = bti.Params
	// BTIDevice is one BTI-aging transistor population.
	BTIDevice = bti.Device
	// BTICondition is an electrical/thermal stress or recovery condition.
	BTICondition = bti.Condition
	// BTIPhase is one constant-condition segment of a schedule.
	BTIPhase = bti.Phase
	// BTISchedule is an ordered sequence of phases.
	BTISchedule = bti.Schedule
	// CycleResidual is the post-recovery state of one duty cycle (Fig. 4).
	CycleResidual = bti.CycleResidual
)

// The paper's stress and Table I recovery conditions.
var (
	// StressAccel is the accelerated stress (high voltage and temperature).
	StressAccel = bti.StressAccel
	// RecoverPassive is Table I No. 1 (20 °C, 0 V).
	RecoverPassive = bti.RecoverPassive
	// RecoverActive is Table I No. 2 (20 °C, −0.3 V).
	RecoverActive = bti.RecoverActive
	// RecoverAccelerated is Table I No. 3 (110 °C, 0 V).
	RecoverAccelerated = bti.RecoverAccelerated
	// RecoverDeep is Table I No. 4 (110 °C, −0.3 V) — deep healing.
	RecoverDeep = bti.RecoverDeep
)

// DefaultBTIParams returns the parameter set calibrated against the paper's
// Table I model column.
func DefaultBTIParams() BTIParams { return bti.DefaultParams() }

// NewBTIDevice builds a fresh BTI device.
func NewBTIDevice(p BTIParams) (*BTIDevice, error) { return bti.NewDevice(p) }

// MustNewBTIDevice is NewBTIDevice for known-good parameters.
func MustNewBTIDevice(p BTIParams) *BTIDevice { return bti.MustNewDevice(p) }

// Population studies (device-to-device variability).
type (
	// BTIPopulation is a set of parameter-variable BTI devices.
	BTIPopulation = bti.Population
	// BTIVariation describes the parameter spread of a population.
	BTIVariation = bti.Variation
	// BTIStats summarises a population's threshold shifts.
	BTIStats = bti.Stats
)

// DefaultBTIVariation models a moderately variable 40 nm-class population.
func DefaultBTIVariation() BTIVariation { return bti.DefaultVariation() }

// NewBTIPopulation draws n devices around nominal parameters.
func NewBTIPopulation(nominal BTIParams, v BTIVariation, n int, rng *RNG) (*BTIPopulation, error) {
	return bti.NewPopulation(nominal, v, n, rng)
}

// EM wearout modelling (the paper's §III-D experiments).
type (
	// EMParams describes a metal test wire and the Korhonen model constants.
	EMParams = em.Params
	// Wire is one EM-stressed metal line (full PDE model).
	Wire = em.Wire
	// WireEnd identifies a wire extremity.
	WireEnd = em.End
	// EMSample is one resistance-trace point.
	EMSample = em.Sample
	// EMSchedule is a sequence of current/temperature phases.
	EMSchedule = em.Schedule
	// EMReducedParams configures the per-segment reduced-order EM model.
	EMReducedParams = em.ReducedParams
	// EMSegment is the reduced-order EM state used in system simulations.
	EMSegment = em.Reduced
)

// Wire ends.
const (
	EndCathode = em.EndCathode
	EndAnode   = em.EndAnode
)

// DefaultEMParams returns the model of the paper's 0.18 µm copper test wire.
func DefaultEMParams() EMParams { return em.DefaultParams() }

// NewWire builds a fresh test wire.
func NewWire(p EMParams) (*Wire, error) { return em.NewWire(p) }

// MustNewWire is NewWire for known-good parameters.
func MustNewWire(p EMParams) *Wire { return em.MustNewWire(p) }

// DefaultEMReducedParams returns reduced-order parameters matched to the
// full wire model.
func DefaultEMReducedParams() EMReducedParams { return em.DefaultReducedParams() }

// NewEMSegment builds a reduced-order EM segment.
func NewEMSegment(p EMReducedParams) (*EMSegment, error) { return em.NewReduced(p) }

// Assist circuitry (the paper's §IV-A, Figs. 8–10).
type (
	// AssistConfig sizes the assist circuitry and its load.
	AssistConfig = assist.Config
	// Assist is one instantiated assist-circuitry block.
	Assist = assist.Assist
	// AssistMode selects Normal / EM recovery / BTI recovery operation.
	AssistMode = assist.Mode
	// OperatingPoint is a DC solution of the assist circuitry.
	OperatingPoint = assist.OperatingPoint
	// SizingPoint is one row of the Fig. 10 load-size sweep.
	SizingPoint = assist.SizingPoint
)

// Assist circuitry operating modes.
const (
	ModeNormal      = assist.ModeNormal
	ModeEMRecovery  = assist.ModeEMRecovery
	ModeBTIRecovery = assist.ModeBTIRecovery
)

// DefaultAssistConfig returns the 28 nm-class sizing used for Fig. 9/10.
func DefaultAssistConfig() AssistConfig { return assist.DefaultConfig() }

// NewAssist builds the assist circuitry netlist in Normal mode.
func NewAssist(cfg AssistConfig) (*Assist, error) { return assist.New(cfg) }

// AssistLoadSweep reproduces Fig. 10's load-size trade-off.
func AssistLoadSweep(cfg AssistConfig, maxLoads int) ([]SizingPoint, error) {
	return assist.LoadSizeSweep(cfg, maxLoads)
}

// System-level Deep Healing scheduling (the paper's §IV-B, Fig. 12).
type (
	// SystemConfig describes the simulated many-core system.
	SystemConfig = core.Config
	// Simulator runs one scheduling policy over a system lifetime.
	Simulator = core.Simulator
	// Policy plans per-step core modes and EM-recovery intervals.
	Policy = core.Policy
	// DeepHealingPolicy is the paper's proposed scheduler.
	DeepHealingPolicy = core.DeepHealing
	// NoRecoveryPolicy is the worst-case baseline.
	NoRecoveryPolicy = core.NoRecovery
	// PassiveRecoveryPolicy is the power-gating baseline.
	PassiveRecoveryPolicy = core.PassiveRecovery
	// SystemReport summarises one policy run.
	SystemReport = core.Report
	// StatefulPolicy is a Policy whose planning state survives checkpoints.
	StatefulPolicy = core.StatefulPolicy
	// SimOption tunes how a Simulator executes (workers, hooks).
	SimOption = core.Option
	// StageName identifies one stage of a simulation step.
	StageName = engine.StageName
	// WorkloadProfile produces per-step utilisation.
	WorkloadProfile = workload.Profile
)

// DefaultSystemConfig returns the 16-core reference system.
func DefaultSystemConfig() SystemConfig { return core.DefaultConfig() }

// SystemConfigForGrid returns the reference system rescaled to a rows×cols
// die.
func SystemConfigForGrid(rows, cols int) SystemConfig { return core.ConfigForGrid(rows, cols) }

// DefaultDeepHealing returns the tuned Deep Healing scheduler.
func DefaultDeepHealing() *DeepHealingPolicy { return core.DefaultDeepHealing() }

// NewSimulator builds a system simulator for one policy run. Options bound
// the wearout-stage worker pool (WithWorkers) and install the per-stage
// timing hook (WithStageTime); results are bit-identical for every worker
// count.
func NewSimulator(cfg SystemConfig, p Policy, opts ...SimOption) (*Simulator, error) {
	return core.NewSimulator(cfg, p, opts...)
}

// WithWorkers bounds the simulator's wearout-stage worker pool
// (0 = GOMAXPROCS, 1 = serial).
func WithWorkers(n int) SimOption { return core.WithWorkers(n) }

// WithStageTime installs a per-stage wall-time callback.
func WithStageTime(fn func(stage StageName, d time.Duration)) SimOption {
	return core.WithStageTime(fn)
}

// RunPolicies runs one independent simulation per policy concurrently.
func RunPolicies(cfg SystemConfig, policies ...Policy) ([]*SystemReport, error) {
	return core.RunPolicies(cfg, policies...)
}

// RunPoliciesContext is RunPolicies with cancellation and an explicit worker
// bound (0 = GOMAXPROCS).
func RunPoliciesContext(ctx context.Context, cfg SystemConfig, workers int, policies ...Policy) ([]*SystemReport, error) {
	return core.RunPoliciesContext(ctx, cfg, workers, policies...)
}

// Scheduler auto-tuning.
type (
	// TuneOptions bounds the deep-healing knob search.
	TuneOptions = core.TuneOptions
	// TuneResult is the best configuration found and its evaluation.
	TuneResult = core.TuneResult
)

// TuneDeepHealing grid-searches the deep-healing scheduling knobs for the
// smallest guardband that meets the availability floor.
func TuneDeepHealing(cfg SystemConfig, opts TuneOptions) (*TuneResult, error) {
	return core.Tune(cfg, opts)
}

// TuneDeepHealingContext is TuneDeepHealing with cancellation.
func TuneDeepHealingContext(ctx context.Context, cfg SystemConfig, opts TuneOptions) (*TuneResult, error) {
	return core.TuneContext(ctx, cfg, opts)
}

// Reliability mathematics.
type (
	// Margin quantifies a wearout guardband.
	Margin = lifetime.Margin
	// BlackParams parameterises Black's equation.
	BlackParams = lifetime.BlackParams
)

// MarginReduction compares a baseline guardband against an improved one.
func MarginReduction(baseline, improved Margin) float64 {
	return lifetime.Reduction(baseline, improved)
}

// DefaultBlackParams returns Black's-equation constants calibrated to the
// Korhonen model at the paper's accelerated conditions.
func DefaultBlackParams() BlackParams { return lifetime.DefaultBlackParams() }

// Units and conditions.
type (
	// Temperature is an absolute temperature.
	Temperature = units.Temperature
	// CurrentDensity is a signed current density.
	CurrentDensity = units.CurrentDensity
)

// Celsius converts degrees Celsius to a Temperature.
func Celsius(c float64) Temperature { return units.Celsius(c) }

// MAPerCm2 converts MA/cm² (the paper's unit) to a CurrentDensity.
func MAPerCm2(v float64) CurrentDensity { return units.MAPerCm2(v) }

// Hours converts hours to seconds, the time unit of the simulators.
func Hours(h float64) float64 { return units.Hours(h) }

// Minutes converts minutes to seconds.
func Minutes(m float64) float64 { return units.Minutes(m) }

// Experiments: regenerate every table and figure of the paper.
type (
	// ExperimentResult is a completed experiment with a paper-style
	// formatter.
	ExperimentResult = experiments.Result
	// ExperimentEntry is one registered experiment: its id and campaign
	// plan.
	ExperimentEntry = experiments.Entry
)

// RunExperiment executes one of the registered paper experiments
// ("table1", "fig4", ..., "fig12", "ablation-...") serially under ctx.
func RunExperiment(ctx context.Context, id string) (ExperimentResult, error) {
	return experiments.Run(ctx, id)
}

// ExperimentIDs lists the registered experiment identifiers in
// presentation order.
func ExperimentIDs() []string { return experiments.IDs() }

// Experiments returns the experiment registry in presentation order.
func Experiments() []ExperimentEntry { return experiments.Registry() }

// Campaign execution: run many experiments on one bounded worker pool with
// cross-experiment memoisation and point-granular checkpoint/resume.
type (
	// CampaignTask is one experiment's declared point set.
	CampaignTask = campaign.Task
	// CampaignOptions tunes a campaign run (workers, journal, delivery).
	CampaignOptions = campaign.Options
	// CampaignOutcome is one task's completed execution with per-point
	// statistics.
	CampaignOutcome = campaign.Outcome
	// CampaignJournal persists completed points for checkpoint/resume.
	CampaignJournal = campaign.Journal
)

// OpenCampaignJournal opens (creating if needed) a campaign journal
// directory for checkpoint/resume at point granularity.
func OpenCampaignJournal(dir string) (*CampaignJournal, error) {
	return campaign.OpenJournal(dir)
}

// RunCampaign executes the given experiments (all of them when ids is
// empty) on one bounded worker pool. Outcomes are returned — and delivered
// to opts.OnTask — in registry order, byte-identical to a serial run.
func RunCampaign(ctx context.Context, ids []string, opts CampaignOptions) ([]CampaignOutcome, error) {
	tasks, err := experiments.Plans(ids...)
	if err != nil {
		return nil, err
	}
	return campaign.Run(ctx, tasks, opts)
}

// Sensors and workloads used by the system simulations.
type (
	// ROSensorConfig describes a ring-oscillator BTI sensor.
	ROSensorConfig = sensor.ROConfig
	// RNG is a deterministic random stream.
	RNG = rngx.Source
)

// NewRNG creates a deterministic random source for reproducible runs.
func NewRNG(seed int64) *RNG { return rngx.New(seed) }

// ConstantWorkload returns a fixed-utilisation profile.
func ConstantWorkload(util float64) WorkloadProfile { return workload.Constant{Util: util} }

// PeriodicWorkload returns a busy/idle alternating profile.
func PeriodicWorkload(busySteps, idleSteps int, busyUtil float64) WorkloadProfile {
	return workload.Periodic{BusySteps: busySteps, IdleSteps: idleSteps, BusyUtil: busyUtil}
}

// IoTWorkload returns a duty-cycled wake/sleep profile (the paper's ULP
// motivation).
func IoTWorkload(wakeEvery, active int, util float64) WorkloadProfile {
	return workload.IoTDutyCycle{WakeEvery: wakeEvery, Active: active, Util: util}
}

// TraceWorkload replays a recorded (stepTime, utilisation) trace with
// linear interpolation, optionally looping.
func TraceWorkload(label string, times, utils []float64, loop bool) (WorkloadProfile, error) {
	return workload.NewTraceProfile(label, times, utils, loop)
}
