package thermal

import (
	"bytes"
	"encoding/gob"
	"testing"
)

// TestGridResumeBitIdentical settles a grid, advances it through transient
// steps, checkpoints it mid-way, and checks a second grid restored from the
// checkpoint ends bit-identical to the uninterrupted one. Only transient
// steps follow the checkpoint: a settle would reach the same steady state
// from any starting field.
func TestGridResumeBitIdentical(t *testing.T) {
	const rows, cols = 3, 3
	power := make([]float64, rows*cols)
	for i := range power {
		power[i] = 0.5 + 0.25*float64(i)
	}
	advance := func(g *Grid, step int) {
		t.Helper()
		var err error
		if step == 0 {
			err = g.Settle(power)
		} else {
			err = g.Step(power, 10)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	snapshot := func(g *Grid) []byte {
		t.Helper()
		data, err := g.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, err := NewGrid(rows, cols, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 3; step++ {
		advance(a, step)
	}
	b, err := NewGrid(rows, cols, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Restore(snapshot(a)); err != nil {
		t.Fatal(err)
	}
	for step := 3; step < 7; step++ {
		advance(a, step)
		advance(b, step)
	}
	if !bytes.Equal(snapshot(a), snapshot(b)) {
		t.Error("resumed state diverged from uninterrupted run")
	}
	if err := b.Restore([]byte("not a snapshot")); err == nil {
		t.Error("garbage accepted as grid snapshot")
	}
}

// TestGridRestoreRejectsOtherGrid checks a snapshot restores only into a
// grid of the same dimensions and config, and never sizes anything from the
// payload: huge dimensions used to reach NewGrid.
func TestGridRestoreRejectsOtherGrid(t *testing.T) {
	g, err := NewGrid(3, 3, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	hot := DefaultConfig()
	hot.RVertical *= 2
	for _, snap := range []gridSnapshot{
		{Rows: 4, Cols: 4, Config: DefaultConfig(), TempsK: make([]float64, 16)},
		{Rows: 3, Cols: 3, Config: hot, TempsK: make([]float64, 9)},
		{Rows: 3, Cols: 3, Config: DefaultConfig(), TempsK: make([]float64, 8)},
		{Rows: 1 << 31, Cols: 1 << 31, Config: DefaultConfig()},
	} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
			t.Fatal(err)
		}
		if err := g.Restore(buf.Bytes()); err == nil {
			t.Errorf("snapshot of a %dx%d grid with %d temperatures restored into a 3x3 grid",
				snap.Rows, snap.Cols, len(snap.TempsK))
		}
	}
}
