package pdn

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
)

// The grid's only mutable state is the warm-start vector of the
// conjugate-gradient solver — but that state influences the iterate the
// solver converges to at finite tolerance, so a bit-identical resume must
// carry it.

// gridSnapshot is the serialised form of a power grid's mutable state.
type gridSnapshot struct {
	Config Config
	Warm   []float64
}

// Snapshot serialises the grid's config and solver warm start.
func (g *Grid) Snapshot() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(gridSnapshot{Config: g.cfg, Warm: g.warm}); err != nil {
		return nil, fmt.Errorf("pdn: snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// Restore rewinds the grid from a Snapshot taken from a grid of the same
// config.
func (g *Grid) Restore(data []byte) error {
	var snap gridSnapshot
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&snap); err != nil {
		return fmt.Errorf("pdn: restore: %w", err)
	}
	if !sameConfig(snap.Config, g.cfg) {
		return fmt.Errorf("pdn: restore: snapshot config %+v does not match this grid's %+v", snap.Config, g.cfg)
	}
	if len(snap.Warm) != len(g.warm) {
		return fmt.Errorf("pdn: restore: %d warm-start entries for %d unknowns", len(snap.Warm), len(g.warm))
	}
	copy(g.warm, snap.Warm)
	return nil
}

// sameConfig reports whether a and b describe the same grid. Gob decodes an
// empty pad list as nil, so empty and nil lists compare equal.
func sameConfig(a, b Config) bool {
	if len(a.Pads) == 0 && len(b.Pads) == 0 {
		a.Pads, b.Pads = nil, nil
	}
	return reflect.DeepEqual(a, b)
}
