package em

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Snapshot codec for Reduced segments. A fleet checkpoint holds many
// segments whose params the chip spec already pins, so a snapshot is a
// fixed 60-byte frame of the mutable state only: magic, nucleation
// progress, broken flag, then per void end an open flag and the three
// lengths.

const compactReducedMagic = 'E'

const compactReducedSize = 1 + 8 + 1 + 2*(1+3*8)

// Snapshot serialises the segment's mutable state. Restore it with Restore
// on a segment built from the same ReducedParams.
func (r *Reduced) Snapshot() []byte {
	buf := make([]byte, 0, compactReducedSize)
	buf = append(buf, compactReducedMagic)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.progress))
	buf = append(buf, boolByte(r.broken))
	for _, v := range r.voids {
		buf = append(buf, boolByte(v.open))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.lenM))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.maxLenM))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.permM))
	}
	return buf
}

// Restore rewinds the segment from a Snapshot payload, keeping its
// parameters. A rejected payload leaves the segment untouched.
func (r *Reduced) Restore(data []byte) error {
	if len(data) != compactReducedSize || data[0] != compactReducedMagic {
		return fmt.Errorf("em: restore: payload %dB with magic %#x, want %dB frame",
			len(data), firstByte(data), compactReducedSize)
	}
	progress := math.Float64frombits(binary.LittleEndian.Uint64(data[1:]))
	if math.IsNaN(progress) || math.IsInf(progress, 0) {
		return fmt.Errorf("em: restore: nucleation progress %g not finite", progress)
	}
	broken := data[9] != 0
	var voids [2]voidState
	off := 10
	for i := range voids {
		open := data[off] != 0
		lenM := math.Float64frombits(binary.LittleEndian.Uint64(data[off+1:]))
		maxLenM := math.Float64frombits(binary.LittleEndian.Uint64(data[off+9:]))
		permM := math.Float64frombits(binary.LittleEndian.Uint64(data[off+17:]))
		if !validLength(lenM) || !validLength(maxLenM) || !validLength(permM) {
			return fmt.Errorf("em: restore: invalid void lengths %g/%g/%g m at end %d", lenM, maxLenM, permM, i)
		}
		voids[i] = voidState{open: open, lenM: lenM, maxLenM: maxLenM, permM: permM}
		off += 25
	}
	r.progress = progress
	r.broken = broken
	r.voids = voids
	return nil
}

// validLength reports whether v is a finite, non-negative length.
func validLength(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

func firstByte(data []byte) byte {
	if len(data) == 0 {
		return 0
	}
	return data[0]
}
