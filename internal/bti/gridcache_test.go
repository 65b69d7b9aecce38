package bti

import (
	"maps"
	"math"
	"testing"

	"deepheal/internal/units"
)

func TestGridCacheSharesCorner(t *testing.T) {
	p := DefaultParams().Coarse()
	p.MaxShiftV = 0.123456 // unique corner so other tests' entries don't interfere
	before := GridCacheStats()

	d := MustNewDevice(p)
	c := d.Clone()
	if got := GridCacheStats().Builds - before.Builds; got != 1 {
		t.Fatalf("device+clone built %d grids, want 1", got)
	}
	d2 := MustNewDevice(p)
	if got := GridCacheStats().Builds - before.Builds; got != 1 {
		t.Fatalf("second device of same corner built a grid (builds now %d)", got)
	}
	if c.grid != d.grid || d2.grid != d.grid {
		t.Error("devices of one corner do not share its grid")
	}
}

// TestGridCacheOverflowGetsPrivateGrid fills the cache to its cap: a new
// corner then gets a private grid per device and is not admitted, while
// resident corners keep being shared.
func TestGridCacheOverflowGetsPrivateGrid(t *testing.T) {
	base := DefaultParams().Coarse()
	base.MaxShiftV = 0.0987 // unique family for this test
	resident := MustNewDevice(base)

	gridMu.Lock()
	saved := maps.Clone(gridCache)
	for i := 0; len(gridCache) < maxGridCache; i++ {
		p := base
		p.MaxShiftV = 0.2 + 1e-6*float64(i)
		gridCache[p] = resident.grid // placeholders: only the count matters
	}
	gridMu.Unlock()
	t.Cleanup(func() {
		gridMu.Lock()
		gridCache = saved
		gridMu.Unlock()
	})

	before := GridCacheStats()
	over := base
	over.MaxShiftV = 0.1987
	a, b := MustNewDevice(over), MustNewDevice(over)
	after := GridCacheStats()
	if got := after.Builds - before.Builds; got != 2 {
		t.Errorf("two devices of an overflow corner built %d grids, want 2", got)
	}
	if a.grid == b.grid {
		t.Error("overflow devices share a grid")
	}
	if after.Entries != maxGridCache {
		t.Errorf("cache holds %d entries past its cap of %d", after.Entries, maxGridCache)
	}
	if again := MustNewDevice(base); again.grid != resident.grid {
		t.Error("a resident corner stopped being shared once the cache filled")
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
