package bti

import (
	"errors"
	"fmt"

	"deepheal/internal/mathx"
	"deepheal/internal/rngx"
)

// Variation describes chip-to-chip / device-to-device parameter spread for
// population studies. Each field is a relative sigma applied lognormally to
// the corresponding nominal parameter (0 disables that axis).
type Variation struct {
	// MaxShift spreads the trap-density (ΔVth at full occupancy).
	MaxShift float64
	// EmissionMu shifts the emission-time median (in ln-seconds, additive
	// gaussian) — slow-recovery outliers.
	EmissionMu float64
	// GenRate spreads the permanent-defect generation rate.
	GenRate float64
}

// DefaultVariation models a moderately variable 40 nm-class population.
func DefaultVariation() Variation {
	return Variation{MaxShift: 0.10, EmissionMu: 0.5, GenRate: 0.20}
}

// Validate reports whether the variation is usable.
func (v Variation) Validate() error {
	if v.MaxShift < 0 || v.EmissionMu < 0 || v.GenRate < 0 {
		return errors.New("bti: variation sigmas must be non-negative")
	}
	return nil
}

// Population is a set of device instances drawn around nominal parameters.
type Population struct {
	devices []*Device
}

// NewPopulation draws n devices with the given variation. The draw is
// deterministic in the rng.
//
// Varied draws produce n distinct Params, so their CET grids are built
// privately: routing one-shot variation grids through the shared cache would
// pound its mutex and evict fleet-pinned corners past the cache cap, for
// entries nothing else will ever hit. Only an all-zero variation (identical
// members) shares a cached grid.
func NewPopulation(nominal Params, v Variation, n int, rng *rngx.Source) (*Population, error) {
	if err := nominal.Validate(); err != nil {
		return nil, err
	}
	if err := v.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("bti: population size %d must be positive", n)
	}
	if rng == nil {
		return nil, errors.New("bti: nil rng")
	}
	varied := v.MaxShift > 0 || v.EmissionMu > 0 || v.GenRate > 0
	pop := &Population{devices: make([]*Device, n)}
	for i := 0; i < n; i++ {
		p := nominal
		if v.MaxShift > 0 {
			p.MaxShiftV = nominal.MaxShiftV * rng.LogNormal(0, v.MaxShift)
		}
		if v.EmissionMu > 0 {
			p.MuEmission = nominal.MuEmission + rng.Normal(0, v.EmissionMu)
		}
		if v.GenRate > 0 {
			p.GenRateVPerSec = nominal.GenRateVPerSec * rng.LogNormal(0, v.GenRate)
		}
		if !varied {
			dev, err := NewDevice(p)
			if err != nil {
				return nil, fmt.Errorf("bti: population member %d: %w", i, err)
			}
			pop.devices[i] = dev
			continue
		}
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("bti: population member %d: %w", i, err)
		}
		pop.devices[i] = newDeviceOnGrid(p, newCETGrid(p))
	}
	return pop, nil
}

// Size returns the number of devices.
func (p *Population) Size() int { return len(p.devices) }

// Device returns the i-th member for inspection.
func (p *Population) Device(i int) *Device { return p.devices[i] }

// Apply evolves every member under the same condition through the batched
// shared-grid sweep (bit-identical to a per-device loop, see BatchApply).
func (p *Population) Apply(c Condition, dur float64) {
	BatchApply(p.devices, c, dur)
}

// ApplySchedule runs a schedule on every member, batching each phase across
// the population. Reordering the (device × phase) nest is value-safe for the
// same reason BatchApply is: members are mutually independent.
func (p *Population) ApplySchedule(s Schedule) error {
	if err := s.Validate(); err != nil {
		return err
	}
	for _, ph := range s {
		BatchApply(p.devices, ph.Cond, ph.Duration)
	}
	return nil
}

// Stats summarises the population's threshold shifts.
type Stats struct {
	MeanV, StdV, P95V, WorstV float64
}

// Shifts returns every member's current shift.
func (p *Population) Shifts() []float64 {
	out := make([]float64, len(p.devices))
	for i, d := range p.devices {
		out[i] = d.ShiftV()
	}
	return out
}

// Stats computes the population shift statistics.
func (p *Population) Stats() Stats {
	shifts := p.Shifts()
	_, worst := mathx.MinMax(shifts)
	return Stats{
		MeanV:  mathx.Mean(shifts),
		StdV:   mathx.StdDev(shifts),
		P95V:   mathx.Percentile(shifts, 95),
		WorstV: worst,
	}
}
