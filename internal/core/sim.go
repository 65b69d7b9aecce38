package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"deepheal/internal/bti"
	"deepheal/internal/em"
	"deepheal/internal/engine"
	"deepheal/internal/lifetime"
	"deepheal/internal/pdn"
	"deepheal/internal/sensor"
	"deepheal/internal/thermal"
	"deepheal/internal/units"
	"deepheal/internal/workload"
)

// Options tunes how a Simulator executes; the physics are unaffected.
type Options struct {
	// Workers bounds the worker pool used for the sharded wearout stage.
	// 0 uses GOMAXPROCS; 1 steps serially. Results are bit-identical for
	// every setting (see internal/engine.Pool).
	Workers int
	// LeanSeries retains only the most recent StepStats instead of the full
	// per-step series. Fleet chips run open-ended horizons where an O(steps)
	// series per chip would defeat the memory budget; the report
	// accumulators (guardband, availability, recovery overhead) are
	// unaffected.
	LeanSeries bool
	// StageTime, if non-nil, observes the wall time of every step stage.
	StageTime func(stage engine.StageName, d time.Duration)
}

// Option mutates Options; pass them to NewSimulator.
type Option func(*Options)

// WithWorkers bounds the wearout-stage worker pool (0 = GOMAXPROCS).
func WithWorkers(n int) Option { return func(o *Options) { o.Workers = n } }

// WithStageTime installs a per-stage wall-time callback.
func WithStageTime(fn func(stage engine.StageName, d time.Duration)) Option {
	return func(o *Options) { o.StageTime = fn }
}

// WithLeanSeries keeps only the latest StepStats instead of the full series.
func WithLeanSeries() Option { return func(o *Options) { o.LeanSeries = true } }

// stageNames is the canonical stage order of one step; Simulator.stages[k]
// runs stageNames[k].
var stageNames = [6]engine.StageName{
	engine.StagePlan, engine.StageElectrical, engine.StageThermal,
	engine.StageWearout, engine.StageSense, engine.StageRecord,
}

// Simulator runs one policy over the configured system, one step at a time
// through six fixed stages: plan → electrical → thermal → wearout → sense →
// record. The wearout stage shards the independent per-core BTI devices and
// per-segment EM models across a bounded worker pool with bit-identical
// results to serial stepping; Snapshot/Restore checkpoint the whole system
// between steps.
type Simulator struct {
	cfg       Config
	policy    Policy
	opts      Options
	pool      *engine.Pool
	stages    [6]func() error  // indexed like stageNames
	stageTime [6]time.Duration // accumulated wall time per stage

	cores     []*bti.Device
	sensors   []*sensor.ROSensor
	profiles  []workload.Profile
	grid      *thermal.Grid
	power     *pdn.Grid
	segments  []*em.Reduced
	emSensor  *sensor.EMSensor
	lastTemps []float64 // °C per tile at the end of the previous step

	// Cross-step state (checkpointed): the pending observation produced by
	// the sense stage, the previous step's modes for switch-overhead
	// accounting, and the report accumulators.
	step          int
	sensedShift   []float64
	sensedEMDelta float64
	prevModes     []CoreMode
	series        []StepStats
	demandedSum   float64
	deliveredSum  float64
	recoverySteps int
	guardband     float64
	emNucleated   bool
	emFailedStep  int

	// Per-step scratch (rebuilt every step, never checkpointed).
	demand, effUtil, powerMap, load []float64
	dec                             Decision
	temps                           []units.Temperature
	sol                             *pdn.Solution
	recovering                      int
	demanded, delivered             float64
}

// NewSimulator builds a simulator for one policy run. It is a convenience
// wrapper over NewModel + Model.NewSimulator for callers that run a single
// chip; fleet-scale callers build the Model once and instantiate many
// simulators over it.
func NewSimulator(cfg Config, policy Policy, opts ...Option) (*Simulator, error) {
	m, err := NewModel(cfg)
	if err != nil {
		return nil, err
	}
	return m.NewSimulator(policy, opts...)
}

// Close does nothing: a simulator holds no resource that outlives it (the
// BTI grids it shares live for the process). It is kept so that existing
// callers still build.
func (s *Simulator) Close() {}

// StepStats is the system state recorded after each step.
type StepStats struct {
	Step           int
	MaxShiftV      float64 // worst per-core BTI shift
	MeanShiftV     float64
	WorstDelayNorm float64 // worst normalised path delay (1 = fresh)
	EMMaxProgress  float64 // worst |nucleation progress| across segments
	EMDeltaOhm     float64 // worst segment resistance increase
	MaxTempC       float64
	Recovering     int     // cores in BTI recovery this step
	EMReverse      bool    // assist circuitry in EM recovery this step
	DeliveredFrac  float64 // delivered / demanded utilisation
}

// Report summarises one policy run.
type Report struct {
	Policy string
	Series []StepStats

	// GuardbandFrac is the delay margin a design running this policy must
	// budget: the worst delay degradation seen over the lifetime.
	GuardbandFrac float64
	// FinalShiftV is the worst per-core shift at end of life.
	FinalShiftV float64
	// EMNucleated and EMFailedStep record grid EM events (-1 = none).
	EMNucleated  bool
	EMFailedStep int
	// Availability is the mean delivered/demanded utilisation.
	Availability float64
	// RecoveryOverhead is the fraction of core-steps spent in recovery.
	RecoveryOverhead float64
}

// Step reports the next step the simulator will execute (equals the number
// of completed steps).
func (s *Simulator) Step() int { return s.step }

// StageTimes returns the accumulated wall time per step stage.
func (s *Simulator) StageTimes() map[engine.StageName]time.Duration {
	out := make(map[engine.StageName]time.Duration, len(stageNames))
	for k, name := range stageNames {
		out[name] = s.stageTime[k]
	}
	return out
}

// Run executes the remaining horizon and returns the report.
func (s *Simulator) Run() (*Report, error) {
	return s.RunContext(context.Background())
}

// RunContext is Run with cancellation: the simulation stops between steps
// when ctx is done, returning its error. A cancelled simulator is left on a
// step boundary and can be Snapshot()ed or resumed with another RunContext.
func (s *Simulator) RunContext(ctx context.Context) (*Report, error) {
	if err := s.RunSteps(ctx, s.cfg.Steps-s.step); err != nil {
		return nil, err
	}
	return s.report(), nil
}

// RunSteps advances at most n steps (fewer if the horizon is reached),
// checking ctx before each step. Use it to interleave checkpoints with
// stepping; RunContext finalises the report once the horizon is reached.
//
// Each step runs the six stages in order and times each one. A cancelled
// context runs no stage, so an interrupted run is always left on a step
// boundary — exactly the state a snapshot can checkpoint. A failing stage
// stops the step with an error naming the stage, and Step() stays where it
// was.
func (s *Simulator) RunSteps(ctx context.Context, n int) error {
	for i := 0; i < n && s.step < s.cfg.Steps; i++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("core: step %d: %w", s.step, err)
		}
		var start time.Time
		if metStepSeconds != nil {
			start = time.Now()
		}
		for k, run := range s.stages {
			t0 := time.Now()
			if err := run(); err != nil {
				return fmt.Errorf("core: stage %s: %w", stageNames[k], err)
			}
			d := time.Since(t0)
			s.stageTime[k] += d
			metStageSeconds[k].Observe(d.Seconds())
			if s.opts.StageTime != nil {
				s.opts.StageTime(stageNames[k], d)
			}
		}
		s.step++
		if metStepSeconds != nil {
			metStepSeconds.Observe(time.Since(start).Seconds())
		}
		metStepsTotal.Inc()
	}
	return nil
}

// stagePlan computes this step's demand, asks the policy for a decision and
// settles work migration plus mode-switch overhead.
func (s *Simulator) stagePlan() error {
	n := s.cfg.NumCores()
	for i := 0; i < n; i++ {
		s.demand[i] = s.profiles[i].At(s.step)
	}
	obs := Observation{
		Step:             s.step,
		SensedShiftV:     append([]float64(nil), s.sensedShift...),
		SensedEMDeltaOhm: s.sensedEMDelta,
		Demand:           append([]float64(nil), s.demand...),
		TileTempC:        append([]float64(nil), s.lastTemps...),
		Rows:             s.cfg.Rows,
		Cols:             s.cfg.Cols,
	}
	dec := s.policy.Plan(obs)
	if len(dec.Modes) != n {
		return fmt.Errorf("core: policy %q returned %d modes for %d cores", s.policy.Name(), len(dec.Modes), n)
	}
	for _, m := range dec.Modes {
		switch m {
		case ModeRun, ModeGated, ModeRecover:
		default:
			return fmt.Errorf("core: policy %q returned invalid mode %v", s.policy.Name(), m)
		}
	}
	s.dec = dec

	delivered := s.migrate(dec.Modes, s.demand, s.effUtil)
	// Mode-switch overhead: a core returning from recovery spends part of
	// the step restoring state and reclaiming its migrated work.
	if ovh := s.cfg.SwitchOverheadFrac; ovh > 0 && s.prevModes != nil {
		for i := range dec.Modes {
			if s.prevModes[i] == ModeRecover && dec.Modes[i] != ModeRecover {
				if cap := 1 - ovh; s.effUtil[i] > cap {
					delivered -= s.effUtil[i] - cap
					s.effUtil[i] = cap
				}
			}
		}
	}
	if s.prevModes == nil {
		s.prevModes = make([]CoreMode, n)
	}
	copy(s.prevModes, dec.Modes)
	demanded := 0.0
	for _, d := range s.demand {
		demanded += d
	}
	s.demanded, s.delivered = demanded, delivered
	s.demandedSum += demanded
	s.deliveredSum += delivered
	return nil
}

// stageElectrical solves the power grid for this step's load map.
func (s *Simulator) stageElectrical() error {
	for i := range s.load {
		s.load[i] = s.effUtil[i] * s.cfg.LoadCurrentA
	}
	sol, err := s.power.Solve(s.load)
	if err != nil {
		return err
	}
	s.sol = sol
	return nil
}

// stageThermal maps modes to power and solves the temperature field.
func (s *Simulator) stageThermal() error {
	recovering := 0
	for i := range s.powerMap {
		switch s.dec.Modes[i] {
		case ModeRecover:
			s.powerMap[i] = 0.05
			recovering++
		default:
			s.powerMap[i] = s.cfg.IdlePowerW + s.effUtil[i]*s.cfg.ActivePowerW
		}
	}
	s.recovering = recovering
	s.recoverySteps += recovering
	if err := s.grid.Settle(s.powerMap); err != nil {
		return err
	}
	s.temps = s.grid.TemperaturesInto(s.temps)
	for i, t := range s.temps {
		s.lastTemps[i] = t.C()
	}
	return nil
}

// stageWearout advances every core's BTI state and every segment's EM state
// for the step. Each index owns its component and reads only shared
// per-step inputs, so the pool shards the loops with bit-identical results
// to serial stepping.
func (s *Simulator) stageWearout() error {
	cfg := s.cfg
	s.pool.ForEach(cfg.NumCores(), func(i int) {
		dev, temp := s.cores[i], s.temps[i]
		switch s.dec.Modes[i] {
		case ModeRun:
			dev.Apply(bti.Condition{GateVoltage: cfg.ActiveGateV, Temp: temp}, cfg.StepSeconds)
		case ModeGated:
			stress := s.effUtil[i] * cfg.StepSeconds
			if stress > 0 {
				dev.Apply(bti.Condition{GateVoltage: cfg.ActiveGateV, Temp: temp}, stress)
			}
			if rest := cfg.StepSeconds - stress; rest > 0 {
				dev.Apply(bti.Condition{GateVoltage: 0, Temp: temp}, rest)
			}
		case ModeRecover:
			dev.Apply(bti.Condition{GateVoltage: cfg.RecoveryV, Temp: temp}, cfg.StepSeconds)
		}
	})

	sign := 1.0
	if s.dec.EMReverse {
		sign = -1
	}
	edges := s.power.Edges()
	s.pool.ForEach(len(s.segments), func(k int) {
		e := edges[k]
		j := s.power.CurrentDensity(sign * s.sol.EdgeI[k])
		segTemp := s.temps[e.A]
		if t := s.temps[e.B]; t > segTemp {
			segTemp = t
		}
		s.segments[k].Step(j, segTemp, cfg.StepSeconds)
	})
	return nil
}

// stageSense samples the sensors after the wearout stage, producing the
// observation the next step's plan will consume. The final step skips it:
// there is no next plan, and skipping keeps the sensor noise streams
// byte-aligned with a run that was never checkpointed.
func (s *Simulator) stageSense() error {
	if s.step+1 >= s.cfg.Steps {
		return nil
	}
	return s.sense()
}

// sense reads every wearout sensor into the pending observation.
func (s *Simulator) sense() error {
	for i := range s.sensors {
		s.sensedShift[i] = s.sensors[i].Read(s.cores[i].ShiftV()).ShiftV
	}
	worstDelta := 0.0
	for _, seg := range s.segments {
		if d := seg.ResistanceDelta(); d > worstDelta && !math.IsInf(d, 1) {
			worstDelta = d
		}
	}
	reading, err := s.emSensor.Read(s.cfg.PDN.SegOhm + worstDelta)
	if err != nil {
		return err
	}
	s.sensedEMDelta = reading.DeltaOhm
	return nil
}

// stageRecord assembles the per-step statistics and report accumulators.
func (s *Simulator) stageRecord() error {
	st := s.collect(s.step, s.dec, s.temps, s.recovering, s.demanded, s.delivered)
	if st.WorstDelayNorm-1 > s.guardband {
		s.guardband = st.WorstDelayNorm - 1
	}
	for _, seg := range s.segments {
		if seg.Nucleated() {
			s.emNucleated = true
		}
		if seg.Broken() && s.emFailedStep < 0 {
			s.emFailedStep = s.step
		}
	}
	if s.opts.LeanSeries {
		s.series = append(s.series[:0], st)
	} else {
		s.series = append(s.series, st)
	}
	return nil
}

// Progress summarises the live run state for external querying — the fleet
// service derives per-chip status and remaining-lifetime estimates from it
// without touching simulator internals. All fields are deterministic
// functions of the simulated history, so two bit-identical simulators
// report bit-identical progress.
type Progress struct {
	// Step and Steps are the completed step count and the horizon.
	Step, Steps int
	// Last is the most recent StepStats (zero before the first step).
	Last StepStats
	// GuardbandFrac is the worst delay degradation seen so far.
	GuardbandFrac float64
	// Availability is the delivered/demanded utilisation so far (1 before
	// the first step).
	Availability float64
	// RecoveryOverhead is the fraction of core-steps spent recovering so far.
	RecoveryOverhead float64
	// EMNucleated and EMFailedStep record grid EM events (-1 = none).
	EMNucleated  bool
	EMFailedStep int
	// SensedShiftV is the pending per-core sensed BTI shift observation.
	SensedShiftV []float64
	// SensedEMDeltaOhm is the pending sensed EM resistance increase.
	SensedEMDeltaOhm float64
}

// Progress reports the current run state. The returned slices are copies.
func (s *Simulator) Progress() Progress {
	p := Progress{
		Step:             s.step,
		Steps:            s.cfg.Steps,
		GuardbandFrac:    s.guardband,
		Availability:     1,
		EMNucleated:      s.emNucleated,
		EMFailedStep:     s.emFailedStep,
		SensedShiftV:     append([]float64(nil), s.sensedShift...),
		SensedEMDeltaOhm: s.sensedEMDelta,
	}
	if len(s.series) > 0 {
		p.Last = s.series[len(s.series)-1]
	}
	if s.demandedSum > 0 {
		p.Availability = s.deliveredSum / s.demandedSum
	}
	if s.step > 0 {
		p.RecoveryOverhead = float64(s.recoverySteps) / float64(s.step*s.cfg.NumCores())
	}
	return p
}

// report finalises the run summary from the accumulated state.
func (s *Simulator) report() *Report {
	cfg := s.cfg
	rep := &Report{
		Policy:        s.policy.Name(),
		Series:        s.series,
		GuardbandFrac: s.guardband,
		EMNucleated:   s.emNucleated,
		EMFailedStep:  s.emFailedStep,
	}
	for _, dev := range s.cores {
		if v := dev.ShiftV(); v > rep.FinalShiftV {
			rep.FinalShiftV = v
		}
	}
	if s.demandedSum > 0 {
		rep.Availability = s.deliveredSum / s.demandedSum
	} else {
		rep.Availability = 1
	}
	rep.RecoveryOverhead = float64(s.recoverySteps) / float64(cfg.Steps*cfg.NumCores())
	return rep
}

// migrate redistributes the demand of recovering cores onto available ones
// (capacity 1.0 each) and returns the total delivered utilisation. effUtil
// is filled with the per-core utilisation actually executed.
func (s *Simulator) migrate(modes []CoreMode, demand []float64, effUtil []float64) float64 {
	displaced := 0.0
	spare := 0.0
	for i := range demand {
		if modes[i] == ModeRecover {
			effUtil[i] = 0
			displaced += demand[i]
		} else {
			effUtil[i] = demand[i]
			spare += 1 - demand[i]
		}
	}
	delivered := 0.0
	for i := range demand {
		if modes[i] != ModeRecover {
			delivered += effUtil[i]
		}
	}
	if displaced > 0 && spare > 0 {
		moved := math.Min(displaced, spare)
		// Spread proportionally to spare capacity.
		for i := range demand {
			if modes[i] == ModeRecover {
				continue
			}
			share := (1 - demand[i]) / spare * moved
			effUtil[i] += share
		}
		delivered += moved
	}
	return delivered
}

// collect assembles the per-step statistics.
func (s *Simulator) collect(step int, dec Decision, temps []units.Temperature, recovering int, demanded, delivered float64) StepStats {
	st := StepStats{Step: step, Recovering: recovering, EMReverse: dec.EMReverse}
	var sum float64
	for _, dev := range s.cores {
		v := dev.ShiftV()
		sum += v
		if v > st.MaxShiftV {
			st.MaxShiftV = v
		}
	}
	st.MeanShiftV = sum / float64(len(s.cores))
	delay, err := lifetime.DelayFromShift(s.cfg.DelayVdd, s.cfg.DelayVth0, s.cfg.DelayAlpha, st.MaxShiftV)
	if err != nil {
		// The shift consumed the whole voltage headroom; report a dead core
		// as a very large margin rather than failing the run.
		delay = math.Inf(1)
	}
	st.WorstDelayNorm = delay
	for _, seg := range s.segments {
		if p := math.Abs(seg.Progress()); p > st.EMMaxProgress {
			st.EMMaxProgress = p
		}
		if d := seg.ResistanceDelta(); d > st.EMDeltaOhm && !math.IsInf(d, 1) {
			st.EMDeltaOhm = d
		}
	}
	for _, t := range temps {
		if c := t.C(); c > st.MaxTempC {
			st.MaxTempC = c
		}
	}
	if demanded > 0 {
		st.DeliveredFrac = delivered / demanded
	} else {
		st.DeliveredFrac = 1
	}
	return st
}
