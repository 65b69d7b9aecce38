package circuit

import (
	"math"
	"testing"

	"deepheal/internal/mathx"
)

func mustBuild(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestVoltageDivider(t *testing.T) {
	c := New()
	mustBuild(t, c.AddVSource("V1", "in", Ground, 10))
	mustBuild(t, c.AddResistor("R1", "in", "mid", 1000))
	mustBuild(t, c.AddResistor("R2", "mid", Ground, 3000))
	sol, err := c.DC()
	if err != nil {
		t.Fatal(err)
	}
	if got := sol.Voltage("mid"); !mathx.AlmostEqual(got, 7.5, 1e-6) {
		t.Errorf("mid = %g, want 7.5", got)
	}
	// Source delivers 10V across 4k = 2.5 mA.
	if got := sol.SourceCurrent("V1"); !mathx.AlmostEqual(got, 0.0025, 1e-6) {
		t.Errorf("source current = %g, want 2.5mA", got)
	}
}

func TestKCLResidualProperty(t *testing.T) {
	// Property: in a random resistive ladder, the current into every
	// internal node sums to zero.
	c := New()
	mustBuild(t, c.AddVSource("V1", "n0", Ground, 5))
	rs := []float64{100, 220, 470, 1000, 330}
	names := []string{"n0", "n1", "n2", "n3", "n4", "n5"}
	for i, r := range rs {
		mustBuild(t, c.AddResistor("R"+names[i+1], names[i], names[i+1], r))
	}
	mustBuild(t, c.AddResistor("Rend", "n5", Ground, 150))
	sol, err := c.DC()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		vPrev := sol.Voltage(names[i-1])
		v := sol.Voltage(names[i])
		vNext := sol.Voltage(names[i+1])
		iIn := (vPrev - v) / rs[i-1]
		iOut := (v - vNext) / rs[i]
		if !mathx.AlmostEqual(iIn, iOut, 1e-9) {
			t.Errorf("KCL violated at %s: in %g out %g", names[i], iIn, iOut)
		}
	}
}

func TestSwitchToggle(t *testing.T) {
	c := New()
	mustBuild(t, c.AddVSource("V1", "in", Ground, 1))
	mustBuild(t, c.AddSwitch("S1", "in", "out", 1, 1e9))
	mustBuild(t, c.AddResistor("RL", "out", Ground, 1000))
	sol, err := c.DC()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Voltage("out") > 0.01 {
		t.Errorf("open switch leaked: %g", sol.Voltage("out"))
	}
	mustBuild(t, c.SetSwitch("S1", true))
	sol, err = c.DC()
	if err != nil {
		t.Fatal(err)
	}
	if got := sol.Voltage("out"); !mathx.AlmostEqual(got, 1000.0/1001, 1e-6) {
		t.Errorf("closed switch out = %g", got)
	}
	if err := c.SetSwitch("nope", true); err == nil {
		t.Error("expected unknown-switch error")
	}
}

func TestRCCharging(t *testing.T) {
	// RC step response: v(t) = V(1 - e^{-t/RC}), RC = 1 ms.
	c := New()
	mustBuild(t, c.AddVSource("V1", "in", Ground, 1))
	mustBuild(t, c.AddResistor("R1", "in", "out", 1000))
	mustBuild(t, c.AddCapacitor("C1", "out", Ground, 1e-6))
	// DC operating point charges the cap fully; start instead from a
	// zeroed source then step it.
	mustBuild(t, c.SetVSource("V1", 0))
	tr, err := c.NewTransient()
	if err != nil {
		t.Fatal(err)
	}
	mustBuild(t, c.SetVSource("V1", 1))
	dt := 1e-6
	var v float64
	for i := 0; i < 1000; i++ { // 1 ms = 1 RC
		sol, err := tr.Step(dt)
		if err != nil {
			t.Fatal(err)
		}
		v = sol.Voltage("out")
	}
	want := 1 - math.Exp(-1)
	if math.Abs(v-want) > 0.01 {
		t.Errorf("v(RC) = %g, want ≈%g", v, want)
	}
	if got := tr.Time(); !mathx.AlmostEqual(got, 1e-3, 1e-9) {
		t.Errorf("time = %g", got)
	}
}

func TestNMOSCutoffAndTriode(t *testing.T) {
	p := MOSParams{K: 1e-3, Vth: 0.4}
	build := func(vg float64) *Solution {
		c := New()
		mustBuild(t, c.AddVSource("VDD", "vdd", Ground, 1))
		mustBuild(t, c.AddVSource("VG", "g", Ground, vg))
		mustBuild(t, c.AddResistor("RD", "vdd", "d", 10000))
		mustBuild(t, c.AddNMOS("M1", "d", "g", Ground, p))
		sol, err := c.DC()
		if err != nil {
			t.Fatal(err)
		}
		return sol
	}
	// Cutoff: gate below threshold, drain pulled to VDD.
	if got := build(0.2).Voltage("d"); got < 0.99 {
		t.Errorf("cutoff drain = %g, want ≈1", got)
	}
	// On: gate high, drain pulled low.
	if got := build(1.0).Voltage("d"); got > 0.3 {
		t.Errorf("on drain = %g, want low", got)
	}
	// Monotone: higher gate -> lower drain.
	prev := 2.0
	for _, vg := range []float64{0.3, 0.5, 0.7, 0.9, 1.1} {
		v := build(vg).Voltage("d")
		if v > prev+1e-9 {
			t.Fatalf("drain voltage not monotone in vg at %g", vg)
		}
		prev = v
	}
}

func TestNMOSSaturationCurrent(t *testing.T) {
	// Direct check of the square law in saturation: Vgs=1, Vth=0.4, K=1e-3
	// => Id = 0.5*1e-3*0.36 = 180 µA through a small drain resistor.
	c := New()
	p := MOSParams{K: 1e-3, Vth: 0.4}
	mustBuild(t, c.AddVSource("VDD", "vdd", Ground, 2))
	mustBuild(t, c.AddVSource("VG", "g", Ground, 1))
	mustBuild(t, c.AddResistor("RD", "vdd", "d", 100))
	mustBuild(t, c.AddNMOS("M1", "d", "g", Ground, p))
	sol, err := c.DC()
	if err != nil {
		t.Fatal(err)
	}
	id := (2 - sol.Voltage("d")) / 100
	if !mathx.AlmostEqual(id, 180e-6, 1e-3) {
		t.Errorf("Id = %g, want 180µA", id)
	}
}

func TestPMOSMirrorsNMOS(t *testing.T) {
	// A PMOS with mirrored biasing must conduct the same current.
	p := MOSParams{K: 1e-3, Vth: 0.4}
	c := New()
	mustBuild(t, c.AddVSource("VDD", "vdd", Ground, 2))
	mustBuild(t, c.AddVSource("VG", "g", Ground, 1)) // Vsg = 1
	mustBuild(t, c.AddPMOS("M1", "d", "g", "vdd", p))
	mustBuild(t, c.AddResistor("RD", "d", Ground, 100))
	sol, err := c.DC()
	if err != nil {
		t.Fatal(err)
	}
	id := sol.Voltage("d") / 100
	if !mathx.AlmostEqual(id, 180e-6, 1e-3) {
		t.Errorf("PMOS Id = %g, want 180µA", id)
	}
}

func TestNMOSPassTransistorDroop(t *testing.T) {
	// An NMOS passing a high rail can only reach VDD - Vth-ish — the
	// droop mechanism behind the paper's Fig. 9(b).
	c := New()
	p := MOSParams{K: 5e-3, Vth: 0.35}
	mustBuild(t, c.AddVSource("VDD", "vdd", Ground, 1))
	mustBuild(t, c.AddNMOS("M1", "vdd", "vdd", "out", p)) // gate tied high
	mustBuild(t, c.AddResistor("RL", "out", Ground, 1e6))
	sol, err := c.DC()
	if err != nil {
		t.Fatal(err)
	}
	v := sol.Voltage("out")
	if v > 0.9 || v < 0.4 {
		t.Errorf("pass NMOS out = %g, want VDD - Vth-ish (≈0.6-0.8)", v)
	}
}

func TestBuilderErrors(t *testing.T) {
	c := New()
	if err := c.AddResistor("R", "a", "b", -1); err == nil {
		t.Error("negative resistance accepted")
	}
	if err := c.AddCapacitor("C", "a", "b", 0); err == nil {
		t.Error("zero capacitance accepted")
	}
	if err := c.AddSwitch("S", "a", "b", 10, 5); err == nil {
		t.Error("roff < ron accepted")
	}
	if err := c.AddNMOS("M", "d", "g", "s", MOSParams{}); err == nil {
		t.Error("zero MOSParams accepted")
	}
	mustBuild(t, c.AddVSource("V", "a", Ground, 1))
	if err := c.AddVSource("V", "a", Ground, 2); err == nil {
		t.Error("duplicate vsource accepted")
	}
	if err := c.SetVSource("missing", 0); err == nil {
		t.Error("unknown vsource accepted")
	}
}

func TestEmptyCircuit(t *testing.T) {
	if _, err := New().DC(); err == nil {
		t.Error("empty circuit must fail")
	}
}

func TestSolutionAccessors(t *testing.T) {
	c := New()
	mustBuild(t, c.AddVSource("V1", "a", Ground, 3))
	mustBuild(t, c.AddResistor("R1", "a", Ground, 1))
	sol, err := c.DC()
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Has("a") || !sol.Has(Ground) || sol.Has("zzz") {
		t.Error("Has() wrong")
	}
	if sol.Voltage(Ground) != 0 {
		t.Error("ground voltage must read 0")
	}
}

func TestTransientBadStep(t *testing.T) {
	c := New()
	mustBuild(t, c.AddVSource("V1", "a", Ground, 1))
	mustBuild(t, c.AddResistor("R1", "a", Ground, 1))
	tr, err := c.NewTransient()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Step(0); err == nil {
		t.Error("zero step accepted")
	}
}

func TestCapacitorHoldsChargeWhenIsolated(t *testing.T) {
	// Charge a cap, open the switch, the node must hold (only gmin leak).
	c := New()
	mustBuild(t, c.AddVSource("V1", "in", Ground, 1))
	mustBuild(t, c.AddSwitch("S1", "in", "out", 10, 1e12))
	mustBuild(t, c.AddCapacitor("C1", "out", Ground, 1e-6))
	mustBuild(t, c.SetSwitch("S1", true))
	tr, err := c.NewTransient()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := tr.Step(1e-6); err != nil {
			t.Fatal(err)
		}
	}
	mustBuild(t, c.SetSwitch("S1", false))
	var v float64
	for i := 0; i < 100; i++ {
		sol, err := tr.Step(1e-6)
		if err != nil {
			t.Fatal(err)
		}
		v = sol.Voltage("out")
	}
	if v < 0.95 {
		t.Errorf("isolated cap lost charge: %g", v)
	}
}
