// Package lifetime provides the reliability mathematics around the wearout
// simulators: Black's-equation time-to-failure and acceleration factors,
// the alpha-power delay of a BTI-shifted path, and the guardband/margin
// accounting used to quantify the paper's headline claim — that scheduled
// active recovery lets designers shrink wearout guardbands fundamentally.
package lifetime

import (
	"errors"
	"fmt"
	"math"

	"deepheal/internal/units"
)

// BlackParams parameterises Black's equation
// MTTF = A · j^(−n) · exp(Ea / kT).
type BlackParams struct {
	// A is the technology constant, chosen so MTTF is in seconds when j is
	// in A/m².
	A float64
	// N is the current-density exponent (≈2 for void-growth-limited EM).
	N float64
	// Ea is the activation energy in eV.
	Ea float64
}

// DefaultBlackParams is calibrated so the median TTF at the paper's
// accelerated conditions (7.96 MA/cm², 230 °C) is ≈1050 minutes, matching
// the Korhonen model's break time.
func DefaultBlackParams() BlackParams {
	return BlackParams{A: 3.83e17, N: 2, Ea: 0.9}
}

// Validate reports whether the parameters are usable.
func (p BlackParams) Validate() error {
	if p.A <= 0 || p.N <= 0 || p.Ea < 0 {
		return errors.New("lifetime: Black parameters must be positive")
	}
	return nil
}

// MTTF evaluates Black's equation at the given stress conditions.
func (p BlackParams) MTTF(j units.CurrentDensity, temp units.Temperature) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	if j <= 0 {
		return 0, fmt.Errorf("lifetime: current density %v must be positive", j)
	}
	if !temp.Valid() {
		return 0, fmt.Errorf("lifetime: invalid temperature %v", temp)
	}
	return p.A * math.Pow(j.SI(), -p.N) * math.Exp(p.Ea/(units.BoltzmannEV*temp.K())), nil
}

// AccelerationFactor returns how much faster failures accrue at (jAccel,
// tAccel) than at (jUse, tUse) — the translation between the paper's
// accelerated tests and use conditions.
func (p BlackParams) AccelerationFactor(jAccel units.CurrentDensity, tAccel units.Temperature, jUse units.CurrentDensity, tUse units.Temperature) (float64, error) {
	use, err := p.MTTF(jUse, tUse)
	if err != nil {
		return 0, err
	}
	acc, err := p.MTTF(jAccel, tAccel)
	if err != nil {
		return 0, err
	}
	return use / acc, nil
}

// Margin quantifies a guardband: the fractional performance reserve a
// design must budget to stay functional at end of life.
type Margin struct {
	// FreshDelay and WornDelay are the path delays (arbitrary units) at
	// time zero and at the worst point of the evaluated lifetime.
	FreshDelay, WornDelay float64
}

// Fraction returns the required guardband as a fraction of fresh delay.
func (m Margin) Fraction() float64 {
	if m.FreshDelay <= 0 {
		return 0
	}
	f := (m.WornDelay - m.FreshDelay) / m.FreshDelay
	if f < 0 {
		return 0
	}
	return f
}

// Reduction compares a baseline guardband against an improved one,
// returning the ratio baseline/improved (>1 means the improved design needs
// a smaller margin). An improved margin of zero yields +Inf.
func Reduction(baseline, improved Margin) float64 {
	b, i := baseline.Fraction(), improved.Fraction()
	if i == 0 {
		if b == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return b / i
}

// DelayFromShift converts a BTI threshold-voltage shift into a normalised
// path delay via the alpha-power law: delay ∝ V/(V−Vth)^α with the
// effective threshold raised by the shift.
func DelayFromShift(vdd, vth0, alpha, shiftV float64) (float64, error) {
	if vdd <= 0 || alpha <= 0 {
		return 0, errors.New("lifetime: need positive vdd and alpha")
	}
	vth := vth0 + shiftV
	if vth >= vdd {
		return 0, fmt.Errorf("lifetime: effective threshold %.3f V reaches VDD — device dead", vth)
	}
	fresh := vdd / math.Pow(vdd-vth0, alpha)
	worn := vdd / math.Pow(vdd-vth, alpha)
	return worn / fresh, nil
}
