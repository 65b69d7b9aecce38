// Package units provides physical constants, unit types and conversions
// shared by the wearout simulators. All internal computation uses SI units
// (kelvin, seconds, volts, amperes, metres) unless a name says otherwise.
package units

import (
	"fmt"
	"math"
)

// Physical constants (SI).
const (
	// BoltzmannEV is the Boltzmann constant in electron-volts per kelvin.
	BoltzmannEV = 8.617333262e-5
	// ZeroCelsiusK is 0 degrees Celsius expressed in kelvin.
	ZeroCelsiusK = 273.15
)

// Temperature is an absolute temperature in kelvin.
type Temperature float64

// Celsius converts a Celsius reading into a Temperature.
func Celsius(c float64) Temperature { return Temperature(c + ZeroCelsiusK) }

// Kelvin converts a kelvin reading into a Temperature.
func Kelvin(k float64) Temperature { return Temperature(k) }

// C reports the temperature in degrees Celsius.
func (t Temperature) C() float64 { return float64(t) - ZeroCelsiusK }

// K reports the temperature in kelvin.
func (t Temperature) K() float64 { return float64(t) }

// Valid reports whether the temperature is physical (above absolute zero).
func (t Temperature) Valid() bool { return t > 0 && !math.IsInf(float64(t), 1) }

// String renders the temperature in Celsius, the unit used throughout the paper.
func (t Temperature) String() string { return fmt.Sprintf("%.1f°C", t.C()) }

// Arrhenius returns the dimensionless acceleration factor
// exp(Ea/k * (1/Tref - 1/T)) for activation energy ea (eV) relative to tref.
// Factors above 1 mean the process at t runs faster than at tref.
func Arrhenius(ea float64, t, tref Temperature) float64 {
	return math.Exp(ea / BoltzmannEV * (1/tref.K() - 1/t.K()))
}

// CurrentDensity is a current density in A/m².
type CurrentDensity float64

// MAPerCm2 converts mega-amperes per square centimetre (the unit the paper
// reports, e.g. 7.96 MA/cm²) into a CurrentDensity.
func MAPerCm2(v float64) CurrentDensity { return CurrentDensity(v * 1e10) }

// MAcm2 reports the density in MA/cm².
func (j CurrentDensity) MAcm2() float64 { return float64(j) / 1e10 }

// SI reports the density in A/m².
func (j CurrentDensity) SI() float64 { return float64(j) }

// String renders the density in the paper's MA/cm² unit.
func (j CurrentDensity) String() string { return fmt.Sprintf("%.2fMA/cm²", j.MAcm2()) }

// Micron converts micrometres to metres.
func Micron(um float64) float64 { return um * 1e-6 }

// Millimetre converts millimetres to metres.
func Millimetre(mm float64) float64 { return mm * 1e-3 }

// Hours converts hours to seconds.
func Hours(h float64) float64 { return h * 3600 }

// Minutes converts minutes to seconds.
func Minutes(m float64) float64 { return m * 60 }

// SecondsToHours converts seconds to hours.
func SecondsToHours(s float64) float64 { return s / 3600 }

// SecondsToMinutes converts seconds to minutes.
func SecondsToMinutes(s float64) float64 { return s / 60 }

// Percent formats a fraction (0..1) as a percentage string with one decimal.
func Percent(frac float64) string { return fmt.Sprintf("%.1f%%", frac*100) }
