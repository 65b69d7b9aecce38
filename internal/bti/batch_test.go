package bti

import (
	"math"
	"testing"

	"deepheal/internal/rngx"
	"deepheal/internal/units"
)

// batchHistory is a mixed stress/recovery sequence covering the slow path
// (stressing, multi-substep), the fast path (non-stressing collapse) and
// sub-substep durations.
var batchHistory = []struct {
	c   Condition
	dur float64
}{
	{StressAccel, units.Hours(2)},
	{RecoverDeep, units.Hours(1)},
	{StressAccel, 450},
	{RecoverPassive, units.Hours(3)},
	{Condition{GateVoltage: 1.2, Temp: units.Celsius(85)}, units.Hours(1)},
	{RecoverAccelerated, 900},
}

// requireDeviceEqual asserts two devices carry bit-identical mutable state.
func requireDeviceEqual(t *testing.T, got, want *Device, label string) {
	t.Helper()
	if got.precursorV != want.precursorV || got.lockedV != want.lockedV || got.age != want.age {
		t.Fatalf("%s: permanent state diverged: (%v,%v,%v) vs (%v,%v,%v)", label,
			got.precursorV, got.lockedV, got.age, want.precursorV, want.lockedV, want.age)
	}
	for i := range want.occ {
		if got.occ[i] != want.occ[i] {
			t.Fatalf("%s: occ[%d] = %v, want %v", label, i, got.occ[i], want.occ[i])
		}
	}
	for i := range want.occ32 {
		if got.occ32[i] != want.occ32[i] {
			t.Fatalf("%s: occ32[%d] = %v, want %v", label, i, got.occ32[i], want.occ32[i])
		}
	}
}

// TestBatchApplyMatchesPerDevice drives a shared-grid group through the
// mixed history twice — once batched, once with the plain per-device loop —
// and demands bit-identical state throughout. Devices get distinct initial
// wear so the sweeps are not trivially uniform.
func TestBatchApplyMatchesPerDevice(t *testing.T) {
	const n = 7
	batch := make([]*Device, n)
	plain := make([]*Device, n)
	for i := range batch {
		d := MustNewDevice(DefaultParams().Coarse())
		d.Apply(StressAccel, float64(1+i)*300) // distinct starting occupancy
		batch[i] = d
		plain[i] = d.Clone()
	}
	for step, h := range batchHistory {
		BatchApply(batch, h.c, h.dur)
		for _, d := range plain {
			d.Apply(h.c, h.dur)
		}
		for i := range batch {
			requireDeviceEqual(t, batch[i], plain[i], "device "+string(rune('a'+i))+" after step "+string(rune('0'+step)))
		}
	}
}

// TestBatchApplyMixedGroups exercises the grouping logic: two shared-grid
// corners, a private-grid singleton and float32 members sharing a grid with
// float64 ones in one call must each match their per-device twins.
func TestBatchApplyMixedGroups(t *testing.T) {
	coarse := DefaultParams().Coarse()
	other := coarse
	other.MaxShiftV *= 1.25

	var batch, plain []*Device
	add := func(d *Device) {
		batch = append(batch, d)
		plain = append(plain, d.Clone())
	}
	for i := 0; i < 3; i++ {
		add(MustNewDevice(coarse))
	}
	for i := 0; i < 2; i++ {
		add(MustNewDevice(other))
	}
	add(newDeviceOnGrid(coarse, StorageFloat64, newCETGrid(coarse))) // private grid singleton
	for i := 0; i < 2; i++ {
		d, err := NewDeviceStorage(coarse, StorageFloat32)
		if err != nil {
			t.Fatal(err)
		}
		add(d)
	}

	for _, h := range batchHistory {
		BatchApply(batch, h.c, h.dur)
		for _, d := range plain {
			d.Apply(h.c, h.dur)
		}
	}
	for i := range batch {
		requireDeviceEqual(t, batch[i], plain[i], "mixed member")
	}
}

// TestBatchApplyDegenerate covers the no-op and singleton edges.
func TestBatchApplyDegenerate(t *testing.T) {
	BatchApply(nil, StressAccel, 100)
	d := MustNewDevice(DefaultParams().Coarse())
	ref := d.Clone()
	BatchApply([]*Device{d}, StressAccel, -5) // non-positive duration: no-op
	requireDeviceEqual(t, d, ref, "negative duration")
	BatchApply([]*Device{d}, StressAccel, 1800)
	ref.Apply(StressAccel, 1800)
	requireDeviceEqual(t, d, ref, "singleton")
}

// TestFloat32TracksFloat64OnTableI runs the paper's Table I protocol — 24 h
// accelerated stress, then each recovery condition for 6 h — in both storage
// modes. The float32 trajectory must stay within 1e-4 relative of float64 in
// total shift: single-op rounding is ~6e-8 relative and the substep count is
// ~100, so 1e-4 gives an order of magnitude of slack while still pinning the
// mode to physics-indistinguishable.
func TestFloat32TracksFloat64OnTableI(t *testing.T) {
	for _, rec := range []struct {
		name string
		cond Condition
	}{
		{"passive", RecoverPassive},
		{"active", RecoverActive},
		{"accelerated", RecoverAccelerated},
		{"deep", RecoverDeep},
	} {
		d64 := MustNewDevice(DefaultParams())
		d32, err := NewDeviceStorage(DefaultParams(), StorageFloat32)
		if err != nil {
			t.Fatal(err)
		}
		d64.Apply(StressAccel, units.Hours(24))
		d32.Apply(StressAccel, units.Hours(24))
		stressRel := math.Abs(d32.ShiftV()-d64.ShiftV()) / d64.ShiftV()
		if stressRel > 1e-4 {
			t.Fatalf("%s: post-stress shift diverged by %.3g relative", rec.name, stressRel)
		}
		d64.Apply(rec.cond, units.Hours(6))
		d32.Apply(rec.cond, units.Hours(6))
		rel := math.Abs(d32.ShiftV()-d64.ShiftV()) / d64.ShiftV()
		if rel > 1e-4 {
			t.Fatalf("%s: post-recovery shift diverged by %.3g relative (%.6g vs %.6g)",
				rec.name, rel, d32.ShiftV(), d64.ShiftV())
		}
	}
}

// TestPopulationLeavesGridCacheUntouched is the churn regression: a varied
// 1000-member population must build every grid privately, leaving the shared
// cache's entries, refs and build counter exactly as they were.
func TestPopulationLeavesGridCacheUntouched(t *testing.T) {
	before := GridCacheStats()
	pop, err := NewPopulation(DefaultParams().Coarse(), DefaultVariation(), 1000, rngx.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if after := GridCacheStats(); after != before {
		t.Fatalf("varied population touched the shared grid cache: %+v -> %+v", before, after)
	}
	pop.Apply(StressAccel, units.Hours(1))
	if after := GridCacheStats(); after != before {
		t.Fatalf("stepping a varied population touched the shared grid cache: %+v -> %+v", before, after)
	}
}

// TestPopulationStorageFloat32 checks the fleet-scale storage mode end to
// end: members report float32 storage and the population's statistics stay
// within the documented tolerance of a float64 twin.
func TestPopulationStorageFloat32(t *testing.T) {
	p64, err := NewPopulation(DefaultParams().Coarse(), DefaultVariation(), 24, rngx.New(9))
	if err != nil {
		t.Fatal(err)
	}
	p32, err := NewPopulationStorage(DefaultParams().Coarse(), DefaultVariation(), 24, rngx.New(9), StorageFloat32)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < p32.Size(); i++ {
		if p32.Device(i).Storage() != StorageFloat32 {
			t.Fatalf("member %d storage = %v", i, p32.Device(i).Storage())
		}
	}
	p64.Apply(StressAccel, units.Hours(8))
	p32.Apply(StressAccel, units.Hours(8))
	s64, s32 := p64.Stats(), p32.Stats()
	if rel := math.Abs(s32.MeanV-s64.MeanV) / s64.MeanV; rel > 1e-4 {
		t.Fatalf("float32 population mean diverged by %.3g relative", rel)
	}
	if rel := math.Abs(s32.WorstV-s64.WorstV) / s64.WorstV; rel > 1e-4 {
		t.Fatalf("float32 population worst diverged by %.3g relative", rel)
	}
}
