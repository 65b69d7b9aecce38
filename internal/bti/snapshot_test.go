package bti

import (
	"bytes"
	"math"
	"strings"
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

	// 'b' once tagged float32 occupancy; it is now just a wrong magic, at
	// either cell width.
	cells := len(d.occ)
	head := len(before) - 8*cells
	for _, n := range []int{head + 8*cells, head + 4*cells} {
		junk := append([]byte{'b'}, before[1:n]...)
		err := d.Restore(junk)
		if err == nil || !strings.Contains(err.Error(), "bad magic") {
			t.Errorf("'b' payload of %d bytes: err = %v, want bad magic", len(junk), err)
		}
		if !bytes.Equal(d.Snapshot(), before) {
			t.Fatalf("rejected 'b' payload of %d bytes changed the device", len(junk))
		}
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

// TestStoredShiftFollowsState checks the stored shift through the calls
// that write the occupancy outside a sweep: Restore recomputes it, Clone
// copies it, Reset zeroes it, and a rejected Restore leaves it untouched.
func TestStoredShiftFollowsState(t *testing.T) {
	p := DefaultParams().Coarse()
	src := MustNewDevice(p)
	src.Apply(StressAccel, units.Hours(3))
	snap := src.Snapshot()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

	d := MustNewDevice(p)
	d.Apply(StressAccel, 600)
	before := d.RecoverableV()
	bad := append([]byte(nil), snap...)
	bad[len(bad)-1] = 0xff // the last cell turns negative or NaN
	if err := d.Restore(bad); err == nil {
		t.Fatal("out-of-range occupancy accepted")
	}
	if !same(d.RecoverableV(), before) {
		t.Fatalf("rejected Restore moved the stored shift: %v -> %v", before, d.RecoverableV())
	}

	if err := d.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if diff := shiftDiff(d); diff != "" {
		t.Fatalf("after Restore: %s", diff)
	}
	if !same(d.RecoverableV(), src.RecoverableV()) {
		t.Fatalf("restored shift %v, source %v", d.RecoverableV(), src.RecoverableV())
	}

	c := d.Clone()
	if !same(c.RecoverableV(), d.RecoverableV()) {
		t.Fatalf("clone shift %v, original %v", c.RecoverableV(), d.RecoverableV())
	}

	d.Reset()
	if !same(d.RecoverableV(), 0) || d.ShiftV() != 0 {
		t.Fatalf("after Reset: recoverable %v, total %v, want +0", d.RecoverableV(), d.ShiftV())
	}
	if diff := shiftDiff(d); diff != "" {
		t.Fatalf("after Reset: %s", diff)
	}
}
