package core

import (
	"deepheal/internal/bti"
	"deepheal/internal/em"
	"deepheal/internal/pdn"
	"deepheal/internal/sensor"
	"deepheal/internal/thermal"
	"deepheal/internal/units"
	"deepheal/internal/workload"
)

// Floorplan is the structure description of the many-core die: every
// assumption about the simulated silicon lives here, in one value that only
// the chip simulator consumes. The other victim structures (the scenario
// zoo in internal/scenario) declare their own topology against the same
// substrate models instead of re-expressing the chip. Config/EMParams/PDN
// materialise the plan into the simulator types; the values they produce
// are pinned by test, which is what keeps every campaign content hash (and
// therefore every golden experiment output) unchanged.
type Floorplan struct {
	// Rows×Cols cores, one per thermal tile and PDN node.
	Rows, Cols int
	// StepSeconds is the scheduling quantum; Steps the simulated horizon.
	StepSeconds float64
	Steps       int

	// Electrical stress mapping (see Config).
	ActiveGateV  float64
	RecoveryV    float64
	ActivePowerW float64
	IdlePowerW   float64
	LoadCurrentA float64

	// BTI is the per-core device parameter set.
	BTI bti.Params

	// EM reference point and timescales, expressed in floorplan terms: the
	// reference moves to a busy local rail at a typical hot-tile
	// temperature, and nucleation/equilibration/growth are sized in steps
	// so an unprotected segment fails within the evaluated lifetime.
	EMTRef        units.Temperature
	EMJRef        units.CurrentDensity
	EMNucSteps    float64
	EMEquilSteps  float64
	EMGrowthSteps float64

	// Local power-rail geometry: per-segment resistance and the wire
	// cross-section, sized so a fully loaded centre segment runs close to
	// the EM reference density.
	PDNSegOhm     float64
	PDNWireWidthM float64
	PDNWireThickM float64

	// Delay model (alpha-power law) for the guardband accounting.
	DelayVdd, DelayVth0, DelayAlpha float64

	// SwitchOverheadFrac is the per-transition recovery overhead fraction.
	SwitchOverheadFrac float64

	// DefaultUtil is the utilisation of the constant workload a core falls
	// back to when the config names none.
	DefaultUtil float64

	Seed int64
}

// DefaultFloorplan returns the calibrated 4×4 many-core plan — the single
// source of the constants DefaultConfig has always produced.
func DefaultFloorplan() Floorplan {
	return Floorplan{
		Rows:        4,
		Cols:        4,
		StepSeconds: 3600,
		Steps:       2000,

		ActiveGateV:  1.0,
		RecoveryV:    -0.3,
		ActivePowerW: 4.0,
		IdlePowerW:   0.2,
		LoadCurrentA: 0.004,

		BTI: bti.DefaultParams().Coarse(),

		EMTRef:        units.Celsius(65),
		EMJRef:        units.MAPerCm2(3.2),
		EMNucSteps:    500, // ≈500 steps to nucleate at JRef/TRef
		EMEquilSteps:  1800,
		EMGrowthSteps: 700, // ≈700 steps growth to break

		PDNSegOhm:     0.8,
		PDNWireWidthM: 0.5e-6,
		PDNWireThickM: 0.25e-6,

		DelayVdd:   1.0,
		DelayVth0:  0.30,
		DelayAlpha: 1.5,

		SwitchOverheadFrac: 0.02,

		DefaultUtil: 0.7,

		Seed: 1,
	}
}

// Config materialises the plan into a validated-shape simulator
// configuration at the plan's own grid size.
func (f Floorplan) Config() Config {
	return f.ConfigForGrid(f.Rows, f.Cols)
}

// ConfigForGrid materialises the plan rescaled to a rows×cols die: the PDN
// mesh follows the core grid, everything else keeps the plan's calibrated
// values. Core count becomes a cheap knob for scaling studies.
func (f Floorplan) ConfigForGrid(rows, cols int) Config {
	return Config{
		Rows:        rows,
		Cols:        cols,
		StepSeconds: f.StepSeconds,
		Steps:       f.Steps,

		ActiveGateV:  f.ActiveGateV,
		RecoveryV:    f.RecoveryV,
		ActivePowerW: f.ActivePowerW,
		IdlePowerW:   f.IdlePowerW,
		LoadCurrentA: f.LoadCurrentA,

		BTI:     f.BTI,
		EM:      f.EMParams(),
		PDN:     f.PDN(rows, cols),
		Thermal: thermal.DefaultConfig(),
		Sensor:  sensor.DefaultROConfig(),

		DelayVdd:   f.DelayVdd,
		DelayVth0:  f.DelayVth0,
		DelayAlpha: f.DelayAlpha,

		SwitchOverheadFrac: f.SwitchOverheadFrac,

		Seed: f.Seed,
	}
}

// EMParams rescales the wire-calibrated reduced EM model to the plan's
// on-die use conditions.
func (f Floorplan) EMParams() em.ReducedParams {
	p := em.DefaultReducedParams()
	p.TRef = f.EMTRef
	p.JRef = f.EMJRef
	p.TNucRefS = f.EMNucSteps * f.StepSeconds
	p.EquilTauS = f.EMEquilSteps * f.StepSeconds
	p.GrowthRefMPerS = p.LvBreakM / (f.EMGrowthSteps * f.StepSeconds)
	return p
}

// PDN materialises the plan's local-rail geometry over a rows×cols mesh.
func (f Floorplan) PDN(rows, cols int) pdn.Config {
	cfg := pdn.DefaultConfig()
	cfg.Rows, cfg.Cols = rows, cols
	cfg.SegOhm = f.PDNSegOhm
	cfg.WireWidthM = f.PDNWireWidthM
	cfg.WireThickM = f.PDNWireThickM
	return cfg
}

// DefaultWorkload is the profile a core runs when the config names none.
func (f Floorplan) DefaultWorkload() workload.Profile {
	return workload.Constant{Util: f.DefaultUtil}
}
