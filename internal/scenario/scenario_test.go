package scenario

import (
	"context"
	"math"
	"reflect"
	"sort"
	"testing"

	"deepheal/internal/bti"
	"deepheal/internal/campaign"
	"deepheal/internal/units"
	"deepheal/internal/workload"
)

func TestRegistryNamesSortedAndComplete(t *testing.T) {
	names := Names()
	if !sort.StringsAreSorted(names) {
		t.Errorf("Names() not sorted: %v", names)
	}
	for _, want := range []string{"decoder", "dnnmem", "multiplier"} {
		if _, ok := Lookup(want); !ok {
			t.Errorf("scenario %q not registered", want)
		}
	}
}

func TestRegisteredDescriptionsValidate(t *testing.T) {
	for _, name := range Names() {
		d, _ := Lookup(name)
		if err := d.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	for _, name := range []string{"decoder", "multiplier"} {
		d, _ := Lookup(name)
		run := func() *RunResult {
			in, err := New(d, 42)
			if err != nil {
				t.Fatal(err)
			}
			res, err := in.Run(context.Background(), 40, 8)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		a, b := run(), run()
		if *a != *b {
			t.Errorf("%s: identical seeds diverged: %+v vs %+v", name, a, b)
		}
	}
}

func TestVariationSeedsDecorrelate(t *testing.T) {
	d, _ := Lookup("multiplier")
	shifts := func(seed int64) []float64 {
		in, err := New(d, seed)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := in.Run(context.Background(), 20, 0); err != nil {
			t.Fatal(err)
		}
		return in.Shifts()
	}
	if reflect.DeepEqual(shifts(1), shifts(2)) {
		t.Error("different seeds drew identical populations")
	}
}

// TestVariationSparesSharedGridCache checks the PR 7 grid-churn rule holds
// through the scenario layer: Monte Carlo instances of a varied scenario
// build their one-shot grids privately instead of pounding the shared
// cache.
func TestVariationSparesSharedGridCache(t *testing.T) {
	d, _ := Lookup("multiplier")
	before := bti.GridCacheStats()
	for seed := int64(0); seed < 3; seed++ {
		if _, err := New(d, seed); err != nil {
			t.Fatal(err)
		}
	}
	after := bti.GridCacheStats()
	if after.Entries != before.Entries {
		t.Errorf("varied instances changed shared-cache entries: %d -> %d", before.Entries, after.Entries)
	}
}

func TestHealingPullsBackDegradation(t *testing.T) {
	d, _ := Lookup("decoder")
	run := func(healEvery int) *RunResult {
		in, err := New(d, 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := in.Run(context.Background(), 96, healEvery)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	stressed, healed := run(0), run(8)
	if stressed.Metric <= stressed.Fresh {
		t.Fatalf("aging did not degrade the readout: %+v", stressed)
	}
	if healed.Metric >= stressed.Metric {
		t.Errorf("healing did not reduce degradation: healed %v >= stressed %v", healed.Metric, stressed.Metric)
	}
	if healed.HealSteps != 12 {
		t.Errorf("heal steps = %d, want 12", healed.HealSteps)
	}
	if got := healed.HealOverheadFrac(); got != 0.125 {
		t.Errorf("heal overhead = %v, want 0.125", got)
	}
}

// TestDecoderAgesAsymmetrically checks the scenario's reason to exist: the
// hot row's driver and the cold row's complement degrade most.
func TestDecoderAgesAsymmetrically(t *testing.T) {
	d, _ := Lookup("decoder")
	in, err := New(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.Run(context.Background(), 96, 0); err != nil {
		t.Fatal(err)
	}
	s := in.Shifts()
	if s[0] <= s[decoderRows-1] {
		t.Errorf("hot-row driver (%v) should out-age cold-row driver (%v)", s[0], s[decoderRows-1])
	}
	if s[2*decoderRows-1] <= s[decoderRows] {
		t.Errorf("cold-row complement (%v) should out-age hot-row complement (%v)",
			s[2*decoderRows-1], s[decoderRows])
	}
}

func TestSiteOffsetAcceleratesAging(t *testing.T) {
	d := twoSiteDescription()
	in, err := New(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.Run(context.Background(), 24, 0); err != nil {
		t.Fatal(err)
	}
	s := in.Shifts()
	if s[1] <= s[0] {
		t.Errorf("hot-site device (%v) should out-age cool-site device (%v)", s[1], s[0])
	}
}

// twoSiteDescription is a minimal synthetic structure: two identical
// devices, one at a 25 °C hotter site.
func twoSiteDescription() *Description {
	return &Description{
		Name:        "twosite",
		Title:       "synthetic",
		StepSeconds: 3600,
		Groups: []Group{{
			Name:   "g",
			Params: bti.DefaultParams().Coarse(),
			Stress: bti.Condition{GateVoltage: 1.0, Temp: units.Celsius(60)},
			Idle:   bti.Condition{GateVoltage: 0, Temp: units.Celsius(45)},
			Heal:   bti.Condition{GateVoltage: -0.3, Temp: units.Celsius(60)},
		}},
		Sites: []Site{{Name: "cool"}, {Name: "hot", TempOffsetC: 25}},
		Devices: []DeviceSpec{
			{Name: "a", Group: 0, Site: 0, Duty: workload.Constant{Util: 0.9}, Weight: 1},
			{Name: "b", Group: 0, Site: 1, Duty: workload.Constant{Util: 0.9}, Weight: 1},
		},
		Readout: CriticalPath{Vdd: 1.0, Vth0: 0.3, Alpha: 1.5, Paths: [][]int{{0}, {1}}},
	}
}

func TestValidateRejectsMalformed(t *testing.T) {
	base := twoSiteDescription()
	mutate := func(f func(*Description)) *Description {
		d := twoSiteDescription()
		f(d)
		return d
	}
	cases := map[string]*Description{
		"no name":          mutate(func(d *Description) { d.Name = "" }),
		"no readout":       mutate(func(d *Description) { d.Readout = nil }),
		"bad group index":  mutate(func(d *Description) { d.Devices[0].Group = 5 }),
		"bad site index":   mutate(func(d *Description) { d.Devices[0].Site = -1 }),
		"nil duty":         mutate(func(d *Description) { d.Devices[1].Duty = nil }),
		"negative weight":  mutate(func(d *Description) { d.Devices[0].Weight = -1 }),
		"stressing heal":   mutate(func(d *Description) { d.Groups[0].Heal.GateVoltage = 0.5 }),
		"unstressing load": mutate(func(d *Description) { d.Groups[0].Stress.GateVoltage = 0 }),
		"zero step":        mutate(func(d *Description) { d.StepSeconds = 0 }),
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("base description invalid: %v", err)
	}
	for name, d := range cases {
		if err := d.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestRunCancellation(t *testing.T) {
	d, _ := Lookup("decoder")
	in, err := New(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := in.Run(ctx, 10, 0); err == nil {
		t.Error("cancelled run reported success")
	}
}

func TestHashPartsSeparateInputs(t *testing.T) {
	d, _ := Lookup("multiplier")
	base := campaign.Hash(d.HashParts(100, 8, 1)...)
	for name, h := range map[string]string{
		"steps":     campaign.Hash(d.HashParts(101, 8, 1)...),
		"healEvery": campaign.Hash(d.HashParts(100, 9, 1)...),
		"seed":      campaign.Hash(d.HashParts(100, 8, 2)...),
	} {
		if h == base {
			t.Errorf("hash insensitive to %s", name)
		}
	}
	other, _ := Lookup("decoder")
	if campaign.Hash(other.HashParts(100, 8, 1)...) == base {
		t.Error("hash insensitive to scenario identity")
	}
}

func TestReadoutMetrics(t *testing.T) {
	d := twoSiteDescription()
	cp := CriticalPath{Vdd: 1.0, Vth0: 0.3, Alpha: 1.0, Paths: [][]int{{0}, {1}}}
	fresh := cp.Metric(d, []float64{0, 0})
	want := 1.0 / 0.7
	if math.Abs(fresh-want) > 1e-12 {
		t.Errorf("fresh path delay = %v, want %v", fresh, want)
	}
	aged := cp.Metric(d, []float64{0, 0.1})
	if aged <= fresh {
		t.Errorf("aged delay %v not above fresh %v", aged, fresh)
	}
	// Headroom exhaustion stays finite.
	blown := cp.Metric(d, []float64{0, 0.9})
	if math.IsInf(blown, 0) || math.IsNaN(blown) {
		t.Errorf("blown headroom produced %v", blown)
	}

	mm := MinMargin{MarginV: 0.2, PerVolt: 1}
	if got := mm.Metric(d, []float64{0.05, 0.01}); math.Abs(got-0.15) > 1e-12 {
		t.Errorf("min margin = %v, want 0.15", got)
	}
	// Zero-weight devices carry no margin.
	d.Devices[0].Weight = 0
	if got := mm.Metric(d, []float64{0.05, 0.01}); math.Abs(got-0.19) > 1e-12 {
		t.Errorf("min margin with support device = %v, want 0.19", got)
	}
}
