package pdn

import (
	"bytes"
	"encoding/gob"
	"testing"
)

// TestGridResumeBitIdentical solves a grid under a shifting load map,
// checkpoints it mid-way, and checks a second grid restored from the
// checkpoint ends bit-identical to the uninterrupted one: the solver's
// warm start is carried across the checkpoint.
func TestGridResumeBitIdentical(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Rows, cfg.Cols = 3, 3
	load := make([]float64, cfg.Rows*cfg.Cols)
	solve := func(g *Grid, step int) {
		t.Helper()
		for i := range load {
			load[i] = 0.001 * float64(1+(i+step)%4)
		}
		if _, err := g.Solve(load); err != nil {
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
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 3; step++ {
		solve(a, step)
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Restore(snapshot(a)); err != nil {
		t.Fatal(err)
	}
	for step := 3; step < 7; step++ {
		solve(a, step)
		solve(b, step)
	}
	if !bytes.Equal(snapshot(a), snapshot(b)) {
		t.Error("resumed state diverged from uninterrupted run")
	}
	if err := b.Restore([]byte("not a snapshot")); err == nil {
		t.Error("garbage accepted as grid snapshot")
	}
}

// TestGridRestoreRejectsOtherGrid checks a snapshot restores only into a
// grid of the same config, and never sizes anything from the payload: huge
// dimensions used to reach New.
func TestGridRestoreRejectsOtherGrid(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Rows, cfg.Cols = 3, 3
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	warm := make([]float64, len(g.warm))
	bigger, padded, huge := cfg, cfg, cfg
	bigger.Rows, bigger.Cols = 4, 4
	padded.Pads = []int{0}
	huge.Rows, huge.Cols = 1<<31, 1<<31
	for _, snap := range []gridSnapshot{
		{Config: bigger, Warm: warm},
		{Config: padded, Warm: warm},
		{Config: cfg, Warm: warm[1:]},
		{Config: huge},
	} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
			t.Fatal(err)
		}
		if err := g.Restore(buf.Bytes()); err == nil {
			t.Errorf("snapshot of grid %+v with %d warm-start entries restored", snap.Config, len(snap.Warm))
		}
	}
}
