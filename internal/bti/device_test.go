package bti

import (
	"math"
	"testing"
	"testing/quick"

	"deepheal/internal/rngx"
	"deepheal/internal/units"
)

// age24h returns a device stressed with the paper's 24 h accelerated stress.
func age24h(t *testing.T) *Device {
	t.Helper()
	d, err := NewDevice(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	d.Apply(StressAccel, units.Hours(24))
	return d
}

func TestFreshDeviceHasZeroShift(t *testing.T) {
	d := MustNewDevice(DefaultParams())
	if d.ShiftV() != 0 || d.PermanentV() != 0 || d.LockedV() != 0 {
		t.Errorf("fresh device shift = %g perm = %g", d.ShiftV(), d.PermanentV())
	}
	if d.Age() != 0 {
		t.Errorf("fresh device age = %g", d.Age())
	}
}

// TestTable1Reproduction pins DefaultParams to the fit it was calibrated
// for: the paper's Table I model column (recovery fraction after a 6-hour
// recovery following a 24-hour accelerated stress) within 0.1 % absolute,
// and the unrecoverable plateau after a 48-hour deep recovery within 0.2 %.
// A +5 % error in any one of the five fitted parameters (MuEmission,
// EaEmission, VoltageScale, GenRateVPerSec, Synergy) breaks one of these.
func TestTable1Reproduction(t *testing.T) {
	d := age24h(t)
	cases := []struct {
		name string
		cond Condition
		want float64 // paper model column, fraction
	}{
		{"No.1 passive", RecoverPassive, 0.010},
		{"No.2 active", RecoverActive, 0.144},
		{"No.3 accelerated", RecoverAccelerated, 0.292},
		{"No.4 deep", RecoverDeep, 0.727},
	}
	for _, tc := range cases {
		got := d.RecoveryFraction(tc.cond, units.Hours(6))
		if math.Abs(got-tc.want) > 1e-3 {
			t.Errorf("%s: recovery = %.3f%%, paper model %.1f%%", tc.name, got*100, tc.want*100)
		}
	}
	const plateau = 0.265
	if got := 1 - d.RecoveryFraction(RecoverDeep, units.Hours(48)); math.Abs(got-plateau) > 0.002 {
		t.Errorf("48 h deep-recovery plateau = %.3f%%, fitted %.1f%%", got*100, plateau*100)
	}
}

func TestRecoveryConditionOrdering(t *testing.T) {
	// Deep > accelerated > active > passive, at any recovery duration.
	d := age24h(t)
	for _, hours := range []float64{0.5, 2, 6, 24} {
		dur := units.Hours(hours)
		p := d.RecoveryFraction(RecoverPassive, dur)
		a := d.RecoveryFraction(RecoverActive, dur)
		acc := d.RecoveryFraction(RecoverAccelerated, dur)
		deep := d.RecoveryFraction(RecoverDeep, dur)
		if !(p < a && a < acc && acc < deep) {
			t.Errorf("ordering broken at %gh: passive=%.3f active=%.3f accel=%.3f deep=%.3f",
				hours, p, a, acc, deep)
		}
	}
}

func TestPermanentComponentPlateau(t *testing.T) {
	// Even deep recovery cannot fix the permanent component accumulated
	// during a long uninterrupted stress (paper: >27% remains, and
	// extending the recovery period does not help).
	d := age24h(t)
	rec6 := d.RecoveryFraction(RecoverDeep, units.Hours(6))
	rec48 := d.RecoveryFraction(RecoverDeep, units.Hours(48))
	if rec48 > 0.80 {
		t.Errorf("extended deep recovery removed too much: %.1f%%", rec48*100)
	}
	if rec48-rec6 > 0.05 {
		t.Errorf("recovery still progressing strongly after 6h: 6h=%.3f 48h=%.3f", rec6, rec48)
	}
	plateau := 1 - rec48
	if plateau < 0.22 || plateau > 0.32 {
		t.Errorf("permanent plateau = %.1f%%, want 22-32%% (paper >27%%)", plateau*100)
	}
}

func TestStressMonotoneInTime(t *testing.T) {
	prev := 0.0
	d := MustNewDevice(DefaultParams())
	for i := 0; i < 10; i++ {
		d.Apply(StressAccel, units.Hours(1))
		s := d.ShiftV()
		if s <= prev {
			t.Fatalf("shift not increasing at hour %d: %g <= %g", i+1, s, prev)
		}
		prev = s
	}
}

func TestRecoveryNeverIncreasesShift(t *testing.T) {
	d := age24h(t)
	conds := []Condition{RecoverPassive, RecoverActive, RecoverAccelerated, RecoverDeep}
	rng := rngx.New(1)
	for trial := 0; trial < 40; trial++ {
		c := conds[rng.IntN(len(conds))]
		before := d.ShiftV()
		d.Apply(c, rng.Uniform(60, 7200))
		after := d.ShiftV()
		if after > before+1e-15 {
			t.Fatalf("trial %d: recovery under %v increased shift %g -> %g", trial, c, before, after)
		}
	}
}

func TestShiftBounded(t *testing.T) {
	// Property: any random schedule keeps the shift within physical bounds.
	p := DefaultParams()
	f := func(seed int64) bool {
		rng := rngx.New(seed)
		d := MustNewDevice(p)
		for i := 0; i < 12; i++ {
			var c Condition
			if rng.Bool(0.5) {
				c = Condition{GateVoltage: rng.Uniform(0.8, 1.6), Temp: units.Celsius(rng.Uniform(20, 140))}
			} else {
				c = Condition{GateVoltage: rng.Uniform(-0.4, 0), Temp: units.Celsius(rng.Uniform(20, 140))}
			}
			d.Apply(c, rng.Uniform(60, units.Hours(10)))
			s := d.ShiftV()
			if s < 0 || s > p.MaxShiftV+p.PermanentMaxV || math.IsNaN(s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestApplySemigroup(t *testing.T) {
	// Applying a condition for t1+t2 must equal applying t1 then t2.
	a := MustNewDevice(DefaultParams())
	b := MustNewDevice(DefaultParams())
	a.Apply(StressAccel, units.Hours(3))
	b.Apply(StressAccel, units.Hours(1))
	b.Apply(StressAccel, units.Hours(2))
	if math.Abs(a.ShiftV()-b.ShiftV()) > 1e-9 {
		t.Errorf("semigroup broken: %.10f vs %.10f", a.ShiftV(), b.ShiftV())
	}
}

func TestCloneIndependence(t *testing.T) {
	d := age24h(t)
	c := d.Clone()
	before := d.ShiftV()
	c.Apply(RecoverDeep, units.Hours(6))
	if d.ShiftV() != before {
		t.Error("mutating clone changed original")
	}
	if c.ShiftV() >= before {
		t.Error("clone did not recover")
	}
}

func TestReset(t *testing.T) {
	d := age24h(t)
	d.Reset()
	if d.ShiftV() != 0 || d.Age() != 0 {
		t.Errorf("after Reset: shift=%g age=%g", d.ShiftV(), d.Age())
	}
}

func TestApplyObservedMonotoneTime(t *testing.T) {
	d := MustNewDevice(DefaultParams())
	var times []float64
	d.ApplyObserved(StressAccel, units.Hours(2), units.Minutes(10), func(tt, _ float64) {
		times = append(times, tt)
	})
	if len(times) < 12 {
		t.Fatalf("expected >= 12 observations, got %d", len(times))
	}
	for i := 1; i < len(times); i++ {
		if times[i] < times[i-1] {
			t.Fatalf("non-monotone observation times: %v", times)
		}
	}
	if times[len(times)-1] != units.Hours(2) {
		t.Errorf("final observation at %g, want %g", times[len(times)-1], units.Hours(2))
	}
}

func TestAgeAccumulates(t *testing.T) {
	d := MustNewDevice(DefaultParams())
	d.Apply(StressAccel, 100)
	d.Apply(RecoverPassive, 50)
	if math.Abs(d.Age()-150) > 1e-9 {
		t.Errorf("age = %g, want 150", d.Age())
	}
}

func TestZeroDurationNoop(t *testing.T) {
	d := age24h(t)
	before := d.ShiftV()
	d.Apply(RecoverDeep, 0)
	d.Apply(RecoverDeep, -5)
	if d.ShiftV() != before {
		t.Error("zero/negative duration changed state")
	}
}

func TestRecoveryFractionFreshDevice(t *testing.T) {
	d := MustNewDevice(DefaultParams())
	if got := d.RecoveryFraction(RecoverDeep, units.Hours(6)); got != 0 {
		t.Errorf("fresh device recovery fraction = %g, want 0", got)
	}
}

func TestCoarseGridTracksFine(t *testing.T) {
	fine := MustNewDevice(DefaultParams())
	coarse := MustNewDevice(DefaultParams().Coarse())
	fine.Apply(StressAccel, units.Hours(24))
	coarse.Apply(StressAccel, units.Hours(24))
	rf := fine.RecoveryFraction(RecoverDeep, units.Hours(6))
	rc := coarse.RecoveryFraction(RecoverDeep, units.Hours(6))
	if math.Abs(rf-rc) > 0.05 {
		t.Errorf("coarse grid diverges: fine %.3f vs coarse %.3f", rf, rc)
	}
}

func TestParamsValidate(t *testing.T) {
	good := DefaultParams()
	if err := good.Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	mutations := []func(*Params){
		func(p *Params) { p.GridCapture = 1 },
		func(p *Params) { p.SigmaEmission = 0 },
		func(p *Params) { p.Correlation = 1 },
		func(p *Params) { p.MaxShiftV = 0 },
		func(p *Params) { p.EaEmission = -1 },
		func(p *Params) { p.CaptureVoltScale = 0 },
		func(p *Params) { p.ConvertTau = 0 },
	}
	for i, mut := range mutations {
		p := DefaultParams()
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d: expected validation error", i)
		}
		if _, err := NewDevice(p); err == nil {
			t.Errorf("mutation %d: NewDevice accepted invalid params", i)
		}
	}
}

func TestConditionString(t *testing.T) {
	if got := RecoverDeep.String(); got != "110°C and -0.3V" {
		t.Errorf("String = %q", got)
	}
}

func TestConditionStressing(t *testing.T) {
	if !StressAccel.Stressing() {
		t.Error("StressAccel must be stressing")
	}
	for _, c := range []Condition{RecoverPassive, RecoverActive, RecoverAccelerated, RecoverDeep} {
		if c.Stressing() {
			t.Errorf("%v must not be stressing", c)
		}
	}
}

func TestHotterStressAgesFaster(t *testing.T) {
	cool := MustNewDevice(DefaultParams())
	hot := MustNewDevice(DefaultParams())
	cool.Apply(Condition{GateVoltage: 1.4, Temp: units.Celsius(60)}, units.Hours(8))
	hot.Apply(Condition{GateVoltage: 1.4, Temp: units.Celsius(140)}, units.Hours(8))
	if hot.ShiftV() <= cool.ShiftV() {
		t.Errorf("hot stress %.4f <= cool stress %.4f", hot.ShiftV(), cool.ShiftV())
	}
}

func TestHigherVoltageStressAgesFaster(t *testing.T) {
	lo := MustNewDevice(DefaultParams())
	hi := MustNewDevice(DefaultParams())
	lo.Apply(Condition{GateVoltage: 1.0, Temp: units.Celsius(110)}, units.Hours(8))
	hi.Apply(Condition{GateVoltage: 1.6, Temp: units.Celsius(110)}, units.Hours(8))
	if hi.ShiftV() <= lo.ShiftV() {
		t.Errorf("high-V stress %.4f <= low-V stress %.4f", hi.ShiftV(), lo.ShiftV())
	}
}
