package bti

import (
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

// requireDeviceEqual asserts two devices carry bit-identical mutable state,
// each with its stored shift in step with its occupancy.
func requireDeviceEqual(t *testing.T, got, want *Device, label string) {
	t.Helper()
	for _, d := range []*Device{got, want} {
		if diff := shiftDiff(d); diff != "" {
			t.Fatalf("%s: %s", label, diff)
		}
	}
	if got.precursorV != want.precursorV || got.lockedV != want.lockedV || got.age != want.age {
		t.Fatalf("%s: permanent state diverged: (%v,%v,%v) vs (%v,%v,%v)", label,
			got.precursorV, got.lockedV, got.age, want.precursorV, want.lockedV, want.age)
	}
	for i := range want.occ {
		if got.occ[i] != want.occ[i] {
			t.Fatalf("%s: occ[%d] = %v, want %v", label, i, got.occ[i], want.occ[i])
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
// corners, a private-grid singleton and shared-grid members listed after it
// (so a group is not contiguous in the call) must each match their
// per-device twins.
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
	add(newDeviceOnGrid(coarse, newCETGrid(coarse))) // private grid singleton
	for i := 0; i < 2; i++ {
		add(MustNewDevice(coarse))
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
