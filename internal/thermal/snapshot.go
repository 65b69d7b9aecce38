package thermal

import (
	"encoding/binary"

	"deepheal/internal/codec"
	"deepheal/internal/units"
)

// The die temperature field is carried through a checkpoint. The direct
// solve reads no history, so the next Settle overwrites it; the frame keeps
// it because the checkpoint format does. The snapshot is a fixed frame:
// magic, the dimensions and the config (a compatibility check), then the
// temperatures.

const snapshotMagic = 'H'

// Snapshot serialises the grid's dimensions, config and temperatures.
func (g *Grid) Snapshot() []byte {
	buf := make([]byte, 0, 1+2*binary.MaxVarintLen64+4*8+binary.MaxVarintLen64+8*len(g.temps))
	buf = append(buf, snapshotMagic)
	buf = binary.AppendUvarint(buf, uint64(g.rows))
	buf = binary.AppendUvarint(buf, uint64(g.cols))
	for _, v := range []float64{g.cfg.RVertical, g.cfg.RLateral, g.cfg.HeatCapacity, g.cfg.Ambient.K()} {
		buf = codec.AppendFloat(buf, v)
	}
	return codec.AppendFloats(buf, g.temps)
}

// Restore rewinds the grid from a Snapshot taken from a grid of the same
// dimensions and config. A rejected payload leaves the grid untouched.
func (g *Grid) Restore(data []byte) error {
	r := codec.NewReader(data, "thermal: restore")
	r.Magic(snapshotMagic)
	rows, cols := r.Uvarint(), r.Uvarint()
	cfg := Config{RVertical: r.Float(), RLateral: r.Float(), HeatCapacity: r.Float(), Ambient: units.Kelvin(r.Float())}
	if r.Err() == nil && (rows != uint64(g.rows) || cols != uint64(g.cols) || cfg != g.cfg) {
		r.Fail("snapshot of a %dx%d grid (%+v) does not match this %dx%d grid (%+v)",
			rows, cols, cfg, g.rows, g.cols, g.cfg)
	}
	temps := r.Floats(len(g.temps))
	if err := r.Close(); err != nil {
		return err
	}
	copy(g.temps, temps)
	return nil
}
