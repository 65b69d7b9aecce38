package pdn

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"deepheal/internal/codec"
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
		return g.Snapshot()
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

// payload frames a grid snapshot field by field, so a test can write ones
// no grid would.
func payload(c Config, warm []float64) []byte {
	buf := []byte{snapshotMagic}
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
	return codec.AppendFloats(buf, warm)
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
	for name, data := range map[string][]byte{
		"4x4 grid":        payload(bigger, warm),
		"other pads":      payload(padded, warm),
		"short warm":      payload(cfg, warm[1:]),
		"huge dims":       payload(huge, nil),
		"huge pad count":  append(payload(cfg, nil)[:1+2+16], binary.AppendUvarint(nil, 1<<60)...),
		"huge warm count": append(payload(cfg, nil)[:1+2+16+1+16], binary.AppendUvarint(nil, 1<<60)...),
	} {
		if err := g.Restore(data); err == nil {
			t.Errorf("%s: restored", name)
		}
	}
}

// TestGridSnapshotCodec checks the payload round-trips bit-exactly with a
// nil, empty or explicit pad list, and that every malformed payload is
// refused and leaves the grid untouched.
func TestGridSnapshotCodec(t *testing.T) {
	for name, pads := range map[string][]int{"nil pads": nil, "empty pads": {}, "pads": {0, 4, 8}} {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Rows, cfg.Cols, cfg.Pads = 3, 3, pads
			src, dst, fresh := MustNew(cfg), MustNew(cfg), MustNew(cfg)
			load := []float64{0.003, 0.001, 0.002, 0.004, 0.001, 0.002, 0.003, 0.001, 0.002}
			if _, err := src.Solve(load); err != nil {
				t.Fatal(err)
			}
			good := src.Snapshot()
			if err := dst.Restore(good); err != nil {
				t.Fatal(err)
			}
			for i := range src.warm {
				if math.Float64bits(dst.warm[i]) != math.Float64bits(src.warm[i]) {
					t.Fatalf("warm[%d] restored as %v, want %v", i, dst.warm[i], src.warm[i])
				}
			}

			want := fresh.Snapshot()
			nanWarm := append([]float64(nil), src.warm...)
			nanWarm[0] = math.NaN()
			infWarm := append([]float64(nil), src.warm...)
			infWarm[len(infWarm)-1] = math.Inf(-1)
			nanCfg := cfg
			nanCfg.VDD = math.NaN()
			bad := map[string][]byte{
				"trailing byte": append(append([]byte(nil), good...), 0),
				"NaN warm":      payload(cfg, nanWarm),
				"Inf warm":      payload(cfg, infWarm),
				"NaN config":    payload(nanCfg, src.warm),
				"wrong magic":   append([]byte{'H'}, good[1:]...),
			}
			for n := 0; n < len(good); n++ {
				bad[fmt.Sprintf("cut to %d bytes", n)] = good[:n]
			}
			for what, data := range bad {
				if err := fresh.Restore(data); err == nil {
					t.Errorf("%s: restored", what)
				}
				if !bytes.Equal(fresh.Snapshot(), want) {
					t.Fatalf("%s: rejected payload changed the grid", what)
				}
			}
		})
	}
}
