package bti

import (
	"bytes"
	"math"
	"testing"

	"deepheal/internal/units"
)

func TestSnapshotRoundTrip(t *testing.T) {
	d := MustNewDevice(DefaultParams())
	d.Apply(StressAccel, units.Hours(10))
	d.Apply(RecoverDeep, units.Hours(2))

	r := MustNewDevice(DefaultParams())
	if err := r.Restore(d.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if r.ShiftV() != d.ShiftV() || r.PermanentV() != d.PermanentV() || r.Age() != d.Age() {
		t.Fatal("restored state differs")
	}
	// Future evolution must be identical.
	d.Apply(StressAccel, units.Hours(5))
	r.Apply(StressAccel, units.Hours(5))
	if math.Abs(d.ShiftV()-r.ShiftV()) > 1e-15 {
		t.Errorf("evolution diverged after restore: %g vs %g", d.ShiftV(), r.ShiftV())
	}
}

// TestSnapshotRejectsGarbage checks a rejected payload leaves the receiver
// exactly as it was.
func TestSnapshotRejectsGarbage(t *testing.T) {
	d := MustNewDevice(DefaultParams())
	d.Apply(StressAccel, units.Hours(3))
	before := d.Snapshot()
	for _, junk := range [][]byte{nil, []byte("not a snapshot"), before[:len(before)/2]} {
		if err := d.Restore(junk); err == nil {
			t.Errorf("garbage of %d bytes accepted", len(junk))
		}
		if !bytes.Equal(d.Snapshot(), before) {
			t.Fatalf("rejected payload of %d bytes changed the device", len(junk))
		}
	}
}

func TestSnapshotRoundTripFloat32(t *testing.T) {
	d, err := NewDeviceStorage(DefaultParams(), StorageFloat32)
	if err != nil {
		t.Fatal(err)
	}
	d.Apply(StressAccel, units.Hours(10))
	d.Apply(RecoverDeep, units.Hours(2))

	r, err := NewDeviceStorage(DefaultParams(), StorageFloat32)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Restore(d.Snapshot()); err != nil {
		t.Fatal(err)
	}
	requireDeviceEqual(t, r, d, "float32 restore")
	d.Apply(StressAccel, units.Hours(5))
	r.Apply(StressAccel, units.Hours(5))
	requireDeviceEqual(t, r, d, "float32 post-restore evolution")
}

func TestCompactSnapshotFloat32RoundTripAndSize(t *testing.T) {
	d, err := NewDeviceStorage(DefaultParams(), StorageFloat32)
	if err != nil {
		t.Fatal(err)
	}
	d.Apply(StressAccel, units.Hours(10))
	d64 := MustNewDevice(DefaultParams())
	d64.Apply(StressAccel, units.Hours(10))

	blob := d.Snapshot()
	blob64 := d64.Snapshot()
	// The occupancy payload dominates; float32 must halve it.
	if len(blob) >= len(blob64)*2/3 {
		t.Fatalf("float32 snapshot %dB not well below float64's %dB", len(blob), len(blob64))
	}
	r, err := NewDeviceStorage(DefaultParams(), StorageFloat32)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Restore(blob); err != nil {
		t.Fatal(err)
	}
	requireDeviceEqual(t, r, d, "float32 restore")

	// Storage modes must not cross-restore: the payload stride is baked into
	// the framing.
	if err := d64.Restore(blob); err == nil {
		t.Error("float64 device accepted a float32 payload")
	}
	if err := r.Restore(blob64); err == nil {
		t.Error("float32 device accepted a float64 payload")
	}
}

func TestSnapshotFreshDevice(t *testing.T) {
	d := MustNewDevice(DefaultParams())
	r := MustNewDevice(DefaultParams())
	r.Apply(StressAccel, units.Hours(1))
	if err := r.Restore(d.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if r.ShiftV() != 0 || r.Age() != 0 {
		t.Error("fresh snapshot not fresh")
	}
}

// TestDeviceResumeBitIdentical drives a device through alternating stress
// and active recovery, checkpoints it mid-way, and checks a second device
// restored from the checkpoint ends bit-identical to the uninterrupted one.
func TestDeviceResumeBitIdentical(t *testing.T) {
	p := DefaultParams().Coarse()
	cond := func(step int) Condition {
		v := 1.0
		if step%2 == 1 {
			v = -0.3
		}
		return Condition{GateVoltage: v, Temp: units.Celsius(85)}
	}
	a := MustNewDevice(p)
	for step := 0; step < 3; step++ {
		a.Apply(cond(step), 3600)
	}
	b := MustNewDevice(p)
	if err := b.Restore(a.Snapshot()); err != nil {
		t.Fatal(err)
	}
	for step := 3; step < 7; step++ {
		a.Apply(cond(step), 3600)
		b.Apply(cond(step), 3600)
	}
	if !bytes.Equal(a.Snapshot(), b.Snapshot()) {
		t.Error("resumed state diverged from uninterrupted run")
	}
}
