package pdn

import (
	"encoding/binary"
	"slices"

	"deepheal/internal/codec"
)

// The grid's only mutable state is the warm-start vector of the
// conjugate-gradient solver — but that state influences the iterate the
// solver converges to at finite tolerance, so a bit-identical resume must
// carry it. The snapshot is magic, the config (a compatibility check: dims,
// the two electrical floats, the pad list, the wire cross-section), then
// the warm start.

const snapshotMagic = 'P'

// Snapshot serialises the grid's config and solver warm start.
func (g *Grid) Snapshot() []byte {
	c := g.cfg
	buf := make([]byte, 0, 1+(3+len(c.Pads))*binary.MaxVarintLen64+4*8+binary.MaxVarintLen64+8*len(g.warm))
	buf = append(buf, snapshotMagic)
	buf = binary.AppendUvarint(buf, uint64(c.Rows))
	buf = binary.AppendUvarint(buf, uint64(c.Cols))
	buf = codec.AppendFloat(buf, c.SegOhm)
	buf = codec.AppendFloat(buf, c.VDD)
	buf = binary.AppendUvarint(buf, uint64(len(c.Pads)))
	for _, p := range c.Pads {
		buf = binary.AppendUvarint(buf, uint64(p))
	}
	buf = codec.AppendFloat(buf, c.WireWidthM)
	buf = codec.AppendFloat(buf, c.WireThickM)
	return codec.AppendFloats(buf, g.warm)
}

// Restore rewinds the grid from a Snapshot taken from a grid of the same
// config. An empty and a nil pad list are the same config. A rejected
// payload leaves the grid untouched.
func (g *Grid) Restore(data []byte) error {
	r := codec.NewReader(data, "pdn: restore")
	r.Magic(snapshotMagic)
	rows, cols := r.Uvarint(), r.Uvarint()
	segOhm, vdd := r.Float(), r.Float()
	pads := make([]uint64, r.Len(1))
	for i := range pads {
		pads[i] = r.Uvarint()
	}
	width, thick := r.Float(), r.Float()
	c := g.cfg
	if r.Err() == nil && (rows != uint64(c.Rows) || cols != uint64(c.Cols) || segOhm != c.SegOhm || vdd != c.VDD ||
		!slices.EqualFunc(pads, c.Pads, func(a uint64, b int) bool { return a == uint64(b) }) ||
		width != c.WireWidthM || thick != c.WireThickM) {
		r.Fail("snapshot config (%dx%d, %g Ω, %g V, pads %v, %g×%g m) does not match this grid's %+v",
			rows, cols, segOhm, vdd, pads, width, thick, c)
	}
	warm := r.Floats(len(g.warm))
	if err := r.Close(); err != nil {
		return err
	}
	copy(g.warm, warm)
	return nil
}
