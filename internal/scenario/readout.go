package scenario

import (
	"fmt"
	"math"
)

// Readout reduces the per-device threshold shifts of an aged structure into
// the scenario's failure criterion — the quantity a designer budgets
// guardband for.
type Readout interface {
	// Name identifies the criterion.
	Name() string
	// Signature is a stable content string covering every constant that
	// affects Metric; scenario content hashes include it.
	Signature() string
	// Metric computes the criterion from the devices' current shifts
	// (volts), indexed like d.Devices.
	Metric(d *Description, shifts []float64) float64
}

// delayHeadroomFloorV keeps the alpha-power delay finite when aging eats
// the whole gate overdrive: a device that degraded past Vdd-Vth0 is pinned
// at this overdrive, which reads as a catastrophic (but comparable) delay
// rather than an infinity that would poison population statistics.
const delayHeadroomFloorV = 0.05

// CriticalPath is a delay readout: the worst alpha-power-law path delay
// over the declared device-index chains. Per-stage delay is
// Weight · Vdd/(Vdd − Vth0 − ΔVth)^Alpha, the same model the chip simulator
// uses for its guardband accounting, so zoo numbers and chip numbers are
// directly comparable. Larger is worse.
type CriticalPath struct {
	Vdd, Vth0, Alpha float64
	// Paths lists the structure's candidate critical paths as chains of
	// device indices.
	Paths [][]int
}

var _ Readout = CriticalPath{}

// Name implements Readout.
func (CriticalPath) Name() string { return "critical-path delay" }

// Signature implements Readout.
func (r CriticalPath) Signature() string {
	return fmt.Sprintf("critical-path vdd=%g vth0=%g alpha=%g paths=%v", r.Vdd, r.Vth0, r.Alpha, r.Paths)
}

// Metric implements Readout.
func (r CriticalPath) Metric(d *Description, shifts []float64) float64 {
	worst := 0.0
	for _, path := range r.Paths {
		delay := 0.0
		for _, di := range path {
			w := d.Devices[di].Weight
			if w == 0 {
				w = 1
			}
			over := r.Vdd - r.Vth0 - shifts[di]
			if over < delayHeadroomFloorV {
				over = delayHeadroomFloorV
			}
			delay += w * r.Vdd / math.Pow(over, r.Alpha)
		}
		if delay > worst {
			worst = delay
		}
	}
	return worst
}

// MinMargin is a margin readout: the minimum remaining margin (volts)
// across the critical devices — e.g. a weight-memory cell's read/bit-flip
// margin, which BTI on the cell transistors erodes. Devices with zero
// Weight are support circuitry and do not carry a margin. Smaller is worse.
type MinMargin struct {
	// MarginV is the fresh margin; PerVolt the margin lost per volt of
	// threshold shift.
	MarginV, PerVolt float64
}

var _ Readout = MinMargin{}

// Name implements Readout.
func (MinMargin) Name() string { return "min bit margin" }

// Signature implements Readout.
func (r MinMargin) Signature() string {
	return fmt.Sprintf("min-margin margin=%g pervolt=%g", r.MarginV, r.PerVolt)
}

// Metric implements Readout.
func (r MinMargin) Metric(d *Description, shifts []float64) float64 {
	min := math.Inf(1)
	for di, dev := range d.Devices {
		if dev.Weight == 0 {
			continue
		}
		if m := r.MarginV - r.PerVolt*shifts[di]; m < min {
			min = m
		}
	}
	if math.IsInf(min, 1) {
		return r.MarginV
	}
	return min
}
