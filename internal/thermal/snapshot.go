package thermal

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// The die temperature field is state that must survive a checkpoint (it
// warm-starts the next solve and feeds the policies' heat-aware
// observations). One grid per chip, so the gob form's self-description
// costs little.

// gridSnapshot is the serialised form of a thermal grid's mutable state.
type gridSnapshot struct {
	Rows, Cols int
	Config     Config
	TempsK     []float64
}

// Snapshot serialises the grid's dimensions, config and temperatures.
func (g *Grid) Snapshot() ([]byte, error) {
	var buf bytes.Buffer
	snap := gridSnapshot{Rows: g.rows, Cols: g.cols, Config: g.cfg, TempsK: g.temps}
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		return nil, fmt.Errorf("thermal: snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// Restore rewinds the grid from a Snapshot taken from a grid of the same
// dimensions and config.
func (g *Grid) Restore(data []byte) error {
	var snap gridSnapshot
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&snap); err != nil {
		return fmt.Errorf("thermal: restore: %w", err)
	}
	if snap.Rows != g.rows || snap.Cols != g.cols || snap.Config != g.cfg {
		return fmt.Errorf("thermal: restore: snapshot of a %dx%d grid (%+v) does not match this %dx%d grid (%+v)",
			snap.Rows, snap.Cols, snap.Config, g.rows, g.cols, g.cfg)
	}
	if len(snap.TempsK) != len(g.temps) {
		return fmt.Errorf("thermal: restore: %d temperatures for %d tiles", len(snap.TempsK), len(g.temps))
	}
	copy(g.temps, snap.TempsK)
	return nil
}
