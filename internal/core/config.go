// Package core implements the paper's contribution at system level: the
// Deep Healing scheduler. A many-core die — per-core BTI state, a shared
// power-delivery network with per-segment EM state, a thermal grid and
// wearout sensors — runs a workload over an (accelerated-equivalent)
// lifetime while a scheduling policy decides when to insert BTI active
// recovery intervals (idle cores under negative bias, warmed by their
// neighbours) and when to flip the assist circuitry into EM active recovery
// (reverse grid current during operation). The simulator quantifies the
// claim of the paper's Fig. 12: scheduled active recovery keeps the system
// near-fresh, so the wearout guardband shrinks fundamentally.
package core

import (
	"errors"
	"fmt"

	"deepheal/internal/bti"
	"deepheal/internal/em"
	"deepheal/internal/pdn"
	"deepheal/internal/sensor"
	"deepheal/internal/thermal"
	"deepheal/internal/workload"
)

// Config describes the simulated system. Times are in accelerated-equivalent
// units: the wearout models are calibrated against the paper's accelerated
// measurements, so one simulated hour corresponds to a much longer wall-clock
// period at use conditions (see DESIGN.md).
type Config struct {
	// Rows×Cols cores, one per thermal tile and PDN node.
	Rows, Cols int
	// StepSeconds is the scheduling quantum; Steps the simulated horizon.
	StepSeconds float64
	Steps       int

	// Electrical stress mapping.
	ActiveGateV  float64 // nominal gate stress while a core computes (volts)
	RecoveryV    float64 // negative bias during BTI active recovery
	ActivePowerW float64 // per-core power at full utilisation
	IdlePowerW   float64 // per-core power when idle but on
	LoadCurrentA float64 // per-core draw through the monitored local rail at full utilisation

	// Substrate models.
	BTI     bti.Params
	EM      em.ReducedParams
	PDN     pdn.Config
	Thermal thermal.Config
	Sensor  sensor.ROConfig

	// Delay model (alpha-power law) for the guardband accounting.
	DelayVdd, DelayVth0, DelayAlpha float64

	// SwitchOverheadFrac is the fraction of a step's compute capacity a
	// core loses when it enters or leaves BTI recovery (state retention,
	// migration, assist-circuitry mode switching — the paper's "small
	// switching overhead").
	SwitchOverheadFrac float64

	// Workloads, one per core. Nil entries default to a moderate constant
	// load.
	Workloads []workload.Profile

	Seed int64
}

// DefaultConfig returns a 4×4-core system over a 2000-step (hour) horizon
// with the calibrated substrate models — DefaultFloorplan materialised.
func DefaultConfig() Config {
	return DefaultFloorplan().Config()
}

// ConfigForGrid returns DefaultConfig rescaled to a rows×cols die: the PDN
// mesh follows the core grid, everything else keeps the calibrated values.
// Core count becomes a cheap knob for scaling studies.
func ConfigForGrid(rows, cols int) Config {
	return DefaultFloorplan().ConfigForGrid(rows, cols)
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.Rows < 1 || c.Cols < 1:
		return fmt.Errorf("core: grid %dx%d invalid", c.Rows, c.Cols)
	case c.StepSeconds <= 0 || c.Steps <= 0:
		return errors.New("core: horizon must be positive")
	case c.ActiveGateV <= 0:
		return errors.New("core: active gate stress must be positive")
	case c.RecoveryV >= 0:
		return errors.New("core: recovery bias must be negative")
	case c.ActivePowerW < 0 || c.IdlePowerW < 0 || c.LoadCurrentA <= 0:
		return errors.New("core: power/current parameters invalid")
	case c.DelayVdd <= 0 || c.DelayAlpha <= 0 || c.DelayVth0 <= 0 || c.DelayVth0 >= c.DelayVdd:
		return errors.New("core: delay model invalid")
	case c.SwitchOverheadFrac < 0 || c.SwitchOverheadFrac >= 1:
		return errors.New("core: switch overhead must be in [0, 1)")
	case c.PDN.Rows != c.Rows || c.PDN.Cols != c.Cols:
		return errors.New("core: PDN grid must match the core grid")
	case len(c.Workloads) != 0 && len(c.Workloads) != c.Rows*c.Cols:
		return fmt.Errorf("core: %d workloads for %d cores", len(c.Workloads), c.Rows*c.Cols)
	}
	if err := c.BTI.Validate(); err != nil {
		return err
	}
	if err := c.EM.Validate(); err != nil {
		return err
	}
	if err := c.PDN.Validate(); err != nil {
		return err
	}
	if err := c.Thermal.Validate(); err != nil {
		return err
	}
	return c.Sensor.Validate()
}

// NumCores returns the core count.
func (c Config) NumCores() int { return c.Rows * c.Cols }
