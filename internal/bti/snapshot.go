package bti

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Snapshot codec. A fleet checkpoint holds thousands of devices whose
// Params the chip spec already pins, so a snapshot stores only the mutable
// state: grid dimensions (as a compatibility check), the three
// permanent-state floats, and the raw occupancy as little-endian floats.

// deviceMagic tags the device framing.
const deviceMagic = 'B'

// Snapshot serialises the device's mutable state. Restore it with Restore
// on a device built from the same Params.
func (d *Device) Snapshot() []byte {
	buf := make([]byte, 0, 1+2*binary.MaxVarintLen64+24+8*len(d.occ))
	buf = append(buf, deviceMagic)
	buf = binary.AppendUvarint(buf, uint64(d.params.GridCapture))
	buf = binary.AppendUvarint(buf, uint64(d.params.GridEmission))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(d.precursorV))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(d.lockedV))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(d.age))
	for _, v := range d.occ {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

// Restore rewinds the receiver from a Snapshot payload taken from a device
// with the same grid dimensions. A rejected payload leaves the receiver
// untouched.
func (d *Device) Restore(data []byte) error {
	if len(data) == 0 || data[0] != deviceMagic {
		return fmt.Errorf("bti: restore: bad magic")
	}
	rest := data[1:]
	nc, n := binary.Uvarint(rest)
	if n <= 0 {
		return fmt.Errorf("bti: restore: truncated capture dim")
	}
	rest = rest[n:]
	ne, n := binary.Uvarint(rest)
	if n <= 0 {
		return fmt.Errorf("bti: restore: truncated emission dim")
	}
	rest = rest[n:]
	if int(nc) != d.params.GridCapture || int(ne) != d.params.GridEmission {
		return fmt.Errorf("bti: restore: snapshot grid %dx%d does not match device %dx%d",
			nc, ne, d.params.GridCapture, d.params.GridEmission)
	}
	cells := d.params.GridCapture * d.params.GridEmission
	if len(rest) != 24+8*cells {
		return fmt.Errorf("bti: restore: payload %dB, want %dB", len(rest), 24+8*cells)
	}
	precursorV := math.Float64frombits(binary.LittleEndian.Uint64(rest[0:]))
	lockedV := math.Float64frombits(binary.LittleEndian.Uint64(rest[8:]))
	age := math.Float64frombits(binary.LittleEndian.Uint64(rest[16:]))
	if !finite(precursorV) || !finite(lockedV) || !finite(age) || age < 0 {
		return fmt.Errorf("bti: restore: invalid permanent state %g/%g V or age %g s", precursorV, lockedV, age)
	}
	// Check every cell before writing any, so a rejected payload leaves the
	// device untouched.
	raw := rest[24:]
	for i := 0; i < cells; i++ {
		if v := math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:])); !(v >= 0 && v <= 1) {
			return fmt.Errorf("bti: restore: occupancy[%d] = %g outside [0,1]", i, v)
		}
	}
	for i := range d.occ {
		d.occ[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	d.shift = gridShift(d.grid, d.occ) // derived state: never serialised
	d.precursorV = precursorV
	d.lockedV = lockedV
	d.age = age
	return nil
}

// finite reports whether v is neither NaN nor infinite.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
