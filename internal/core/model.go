package core

import (
	"fmt"

	"deepheal/internal/bti"
	"deepheal/internal/em"
	"deepheal/internal/engine"
	"deepheal/internal/pdn"
	"deepheal/internal/rngx"
	"deepheal/internal/sensor"
	"deepheal/internal/thermal"
	"deepheal/internal/workload"
)

// Model is the shared immutable half of a simulation: a validated Config
// plus the resolved per-core workload profiles. Per-chip state (devices,
// grids, accumulators) lives in Simulator; everything a second chip of the
// same configuration would recompute identically lives here or in the
// process-wide caches beneath (the BTI CET grid and kernel caches keyed by
// Params). A fleet builds one Model per distinct chip configuration and
// instantiates many simulators over it — construction of chip N+1 then
// revalidates nothing and rediscretises nothing.
//
// A Model is safe for concurrent use by any number of simulators: it is
// never mutated after NewModel, and profiles only expose the read-only
// At/Name methods.
type Model struct {
	cfg      Config
	profiles []workload.Profile
}

// NewModel validates the configuration once and resolves the per-core
// workload profiles.
func NewModel(cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.NumCores()
	fallback := DefaultFloorplan().DefaultWorkload()
	profiles := make([]workload.Profile, n)
	for i := range profiles {
		if len(cfg.Workloads) == n && cfg.Workloads[i] != nil {
			profiles[i] = cfg.Workloads[i]
		} else {
			profiles[i] = fallback
		}
	}
	return &Model{cfg: cfg, profiles: profiles}, nil
}

// Config returns the model's validated configuration.
func (m *Model) Config() Config { return m.cfg }

// NewSimulator instantiates per-chip state over the shared model using the
// config's own seed.
func (m *Model) NewSimulator(policy Policy, opts ...Option) (*Simulator, error) {
	return m.NewSimulatorSeeded(policy, m.cfg.Seed, opts...)
}

// NewSimulatorSeeded instantiates per-chip state with an explicit sensor
// noise seed, so a fleet can share one Model across chips that differ only
// by seed.
func (m *Model) NewSimulatorSeeded(policy Policy, seed int64, opts ...Option) (*Simulator, error) {
	if policy == nil {
		return nil, fmt.Errorf("core: nil policy")
	}
	cfg := m.cfg
	n := cfg.NumCores()
	rng := rngx.New(seed)
	s := &Simulator{cfg: cfg, policy: policy, emFailedStep: -1}
	for _, o := range opts {
		o(&s.opts)
	}
	s.pool = engine.NewPool(s.opts.Workers)

	s.cores = make([]*bti.Device, n)
	s.sensors = make([]*sensor.ROSensor, n)
	s.profiles = m.profiles
	for i := 0; i < n; i++ {
		dev, err := bti.NewDevice(cfg.BTI)
		if err != nil {
			return nil, err
		}
		s.cores[i] = dev
		ro, err := sensor.NewRO(cfg.Sensor, rng.Split(int64(i)))
		if err != nil {
			return nil, err
		}
		s.sensors[i] = ro
	}

	grid, err := thermal.NewGrid(cfg.Rows, cfg.Cols, cfg.Thermal)
	if err != nil {
		return nil, err
	}
	s.grid = grid
	s.lastTemps = make([]float64, n)
	for i := range s.lastTemps {
		s.lastTemps[i] = cfg.Thermal.Ambient.C()
	}

	power, err := pdn.New(cfg.PDN)
	if err != nil {
		return nil, err
	}
	s.power = power
	s.segments = make([]*em.Reduced, len(power.Edges()))
	for k := range s.segments {
		seg, err := em.NewReduced(cfg.EM)
		if err != nil {
			return nil, err
		}
		s.segments[k] = seg
	}
	emSensorCfg := sensor.EMConfig{RefOhm: cfg.PDN.SegOhm, NoiseSigmaFrac: 1e-3}
	es, err := sensor.NewEM(emSensorCfg, rng.Split(int64(n)+1))
	if err != nil {
		return nil, err
	}
	s.emSensor = es

	s.demand = make([]float64, n)
	s.effUtil = make([]float64, n)
	s.powerMap = make([]float64, n)
	s.load = make([]float64, n)
	s.sensedShift = make([]float64, n)
	seriesCap := cfg.Steps
	if s.opts.LeanSeries {
		seriesCap = 1
	} else if seriesCap > 1<<16 {
		seriesCap = 1 << 16 // let very long horizons grow on demand
	}
	s.series = make([]StepStats, 0, seriesCap)
	s.pipe = engine.NewPipeline([]engine.Stage{
		{Name: engine.StagePlan, Run: s.stagePlan},
		{Name: engine.StageElectrical, Run: s.stageElectrical},
		{Name: engine.StageThermal, Run: s.stageThermal},
		{Name: engine.StageWearout, Run: s.stageWearout},
		{Name: engine.StageSense, Run: s.stageSense},
		{Name: engine.StageRecord, Run: s.stageRecord},
	}, engine.Hooks{Progress: s.opts.Progress, StageTime: s.opts.StageTime})

	// The step-0 plan observes the fresh system.
	if err := s.sense(); err != nil {
		return nil, err
	}
	return s, nil
}
