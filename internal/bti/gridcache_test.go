package bti

import (
	"math"
	"testing"

	"deepheal/internal/units"
)

func TestGridCacheRefcounting(t *testing.T) {
	p := DefaultParams().Coarse()
	p.MaxShiftV = 0.123456 // unique corner so other tests' entries don't interfere
	before := GridCacheStats()

	d := MustNewDevice(p)
	c := d.Clone()
	mid := GridCacheStats()
	if got := mid.LiveRefs - before.LiveRefs; got != 2 {
		t.Fatalf("device+clone hold %d refs, want 2", got)
	}
	if got := mid.Builds - before.Builds; got != 1 {
		t.Fatalf("device+clone built %d grids, want 1", got)
	}

	d2 := MustNewDevice(p)
	if got := GridCacheStats().Builds - before.Builds; got != 1 {
		t.Fatalf("second device of same corner built a grid (builds now %d)", got)
	}

	d.Release()
	c.Release()
	d2.Release()
	d2.Release() // idempotent
	after := GridCacheStats()
	if got := after.LiveRefs - before.LiveRefs; got != 0 {
		t.Errorf("after release %d refs remain", got)
	}
}

func TestReleasedCornerIsEvictable(t *testing.T) {
	base := DefaultParams().Coarse()
	base.MaxShiftV = 0.0987 // unique family for this test
	d := MustNewDevice(base)
	d.Release()

	// Fill the cache past its cap with live corners; the released one must
	// eventually give up its slot without disturbing live entries.
	live := make([]*Device, 0, maxGridCache+4)
	for i := 0; i < maxGridCache+4; i++ {
		p := base
		p.MaxShiftV = 0.2 + 1e-6*float64(i)
		live = append(live, MustNewDevice(p))
	}
	builds := GridCacheStats().Builds
	if _, err := NewDevice(base); err != nil {
		t.Fatal(err)
	}
	if got := GridCacheStats().Builds - builds; got != 1 {
		t.Fatalf("re-registering the released corner built %d grids, want 1 (entry should have been evicted)", got)
	}
	for _, l := range live {
		l.Release()
	}
}

func TestDeviceCompactSnapshotRoundTrip(t *testing.T) {
	p := DefaultParams().Coarse()
	d := MustNewDevice(p)
	d.Apply(Condition{GateVoltage: 1.2, Temp: units.Celsius(125)}, 7200)
	d.Apply(Condition{GateVoltage: 0, Temp: units.Celsius(125)}, 1800)
	data := d.Snapshot()

	r := MustNewDevice(p)
	if err := r.Restore(data); err != nil {
		t.Fatal(err)
	}
	if r.ShiftV() != d.ShiftV() || r.Age() != d.Age() || r.PermanentV() != d.PermanentV() {
		t.Errorf("compact round-trip state mismatch: shift %g vs %g, age %g vs %g",
			r.ShiftV(), d.ShiftV(), r.Age(), d.Age())
	}
	// Continued evolution must agree bit-for-bit.
	d.Apply(Condition{GateVoltage: 1.2, Temp: units.Celsius(125)}, 3600)
	r.Apply(Condition{GateVoltage: 1.2, Temp: units.Celsius(125)}, 3600)
	if d.ShiftV() != r.ShiftV() {
		t.Errorf("post-restore evolution diverged: %g vs %g", d.ShiftV(), r.ShiftV())
	}
}

func TestDeviceCompactRejectsMismatchAndGarbage(t *testing.T) {
	p := DefaultParams().Coarse()
	d := MustNewDevice(p)
	data := d.Snapshot()

	other := MustNewDevice(DefaultParams()) // different grid dimensions
	if err := other.Restore(data); err == nil {
		t.Error("compact snapshot accepted by a device with different grid dimensions")
	}
	// corrupt encodes a device whose state mut has poisoned.
	corrupt := func(mut func(*Device)) []byte {
		c := MustNewDevice(p)
		mut(c)
		return c.Snapshot()
	}
	for _, junk := range [][]byte{
		nil, {}, []byte("x"), data[:len(data)-1],
		corrupt(func(c *Device) { c.occ[0] = math.NaN() }),
		corrupt(func(c *Device) { c.occ[1] = 1.5 }),
		corrupt(func(c *Device) { c.precursorV = math.NaN() }),
		corrupt(func(c *Device) { c.lockedV = math.Inf(1) }),
		corrupt(func(c *Device) { c.age = math.NaN() }),
		corrupt(func(c *Device) { c.age = -1 }),
	} {
		if err := MustNewDevice(p).Restore(junk); err == nil {
			t.Errorf("garbage of %d bytes accepted", len(junk))
		}
	}
}
