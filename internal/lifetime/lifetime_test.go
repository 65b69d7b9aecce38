package lifetime

import (
	"math"
	"testing"

	"deepheal/internal/units"
)

var (
	jPaper    = units.MAPerCm2(7.96)
	tempPaper = units.Celsius(230)
)

func TestBlackMTTFCalibration(t *testing.T) {
	mttf, err := DefaultBlackParams().MTTF(jPaper, tempPaper)
	if err != nil {
		t.Fatal(err)
	}
	min := units.SecondsToMinutes(mttf)
	if min < 900 || min > 1300 {
		t.Errorf("MTTF at paper conditions = %.0f min, want ≈1050", min)
	}
}

func TestBlackScaling(t *testing.T) {
	p := DefaultBlackParams()
	base, err := p.MTTF(jPaper, tempPaper)
	if err != nil {
		t.Fatal(err)
	}
	// Halving the current density with n=2 quadruples lifetime.
	half, err := p.MTTF(jPaper/2, tempPaper)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(half/base-4) > 1e-9 {
		t.Errorf("j scaling: ratio %g, want 4", half/base)
	}
	// Cooler runs longer.
	cool, err := p.MTTF(jPaper, units.Celsius(105))
	if err != nil {
		t.Fatal(err)
	}
	if cool <= base {
		t.Error("cooler wire must live longer")
	}
}

func TestAccelerationFactor(t *testing.T) {
	p := DefaultBlackParams()
	af, err := p.AccelerationFactor(jPaper, tempPaper, units.MAPerCm2(1), units.Celsius(85))
	if err != nil {
		t.Fatal(err)
	}
	if af < 1e3 {
		t.Errorf("acceleration factor %g implausibly small", af)
	}
}

func TestBlackErrors(t *testing.T) {
	p := DefaultBlackParams()
	if _, err := p.MTTF(0, tempPaper); err == nil {
		t.Error("zero current accepted")
	}
	if _, err := p.MTTF(jPaper, units.Kelvin(-1)); err == nil {
		t.Error("invalid temperature accepted")
	}
	bad := BlackParams{}
	if _, err := bad.MTTF(jPaper, tempPaper); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestMarginFraction(t *testing.T) {
	m := Margin{FreshDelay: 1.0, WornDelay: 1.25}
	if math.Abs(m.Fraction()-0.25) > 1e-12 {
		t.Errorf("fraction = %g", m.Fraction())
	}
	if (Margin{FreshDelay: 1, WornDelay: 0.9}).Fraction() != 0 {
		t.Error("negative margin must clamp to 0")
	}
	if (Margin{}).Fraction() != 0 {
		t.Error("zero margin must be 0")
	}
}

func TestReduction(t *testing.T) {
	base := Margin{FreshDelay: 1, WornDelay: 1.3}
	better := Margin{FreshDelay: 1, WornDelay: 1.1}
	if r := Reduction(base, better); math.Abs(r-3) > 1e-9 {
		t.Errorf("reduction = %g, want 3", r)
	}
	if !math.IsInf(Reduction(base, Margin{FreshDelay: 1, WornDelay: 1}), 1) {
		t.Error("zero improved margin must give +Inf")
	}
	if Reduction(Margin{}, Margin{}) != 1 {
		t.Error("both-zero must give 1")
	}
}

func TestDelayFromShift(t *testing.T) {
	fresh, err := DelayFromShift(1.0, 0.3, 1.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fresh != 1 {
		t.Errorf("zero shift delay = %g, want 1", fresh)
	}
	worn, err := DelayFromShift(1.0, 0.3, 1.5, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if worn <= 1 {
		t.Errorf("worn delay = %g, want > 1", worn)
	}
	// Monotone in shift.
	prev := 0.0
	for _, s := range []float64{0, 0.02, 0.04, 0.08, 0.15} {
		d, err := DelayFromShift(1.0, 0.3, 1.5, s)
		if err != nil {
			t.Fatal(err)
		}
		if d <= prev {
			t.Fatalf("delay not monotone at shift %g", s)
		}
		prev = d
	}
	if _, err := DelayFromShift(1.0, 0.3, 1.5, 0.8); err == nil {
		t.Error("threshold reaching VDD must error")
	}
	if _, err := DelayFromShift(0, 0.3, 1.5, 0); err == nil {
		t.Error("zero vdd accepted")
	}
}
