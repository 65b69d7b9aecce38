package thermal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"deepheal/internal/codec"
)

// TestGridResumeBitIdentical settles a grid through a sequence of power
// maps, checkpoints it mid-way, and checks a second grid restored from the
// checkpoint ends bit-identical to the uninterrupted one.
func TestGridResumeBitIdentical(t *testing.T) {
	const rows, cols = 3, 3
	power := make([]float64, rows*cols)
	advance := func(g *Grid, step int) {
		t.Helper()
		for i := range power {
			power[i] = 0.5 + 0.25*float64((i+step)%len(power))
		}
		if err := g.Settle(power); err != nil {
			t.Fatal(err)
		}
	}
	snapshot := func(g *Grid) []byte {
		t.Helper()
		return g.Snapshot()
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

// payload frames a grid snapshot field by field, so a test can write ones
// no grid would.
func payload(rows, cols uint64, cfg Config, temps []float64) []byte {
	buf := []byte{snapshotMagic}
	buf = binary.AppendUvarint(buf, rows)
	buf = binary.AppendUvarint(buf, cols)
	for _, v := range []float64{cfg.RVertical, cfg.RLateral, cfg.HeatCapacity, cfg.Ambient.K()} {
		buf = codec.AppendFloat(buf, v)
	}
	return codec.AppendFloats(buf, temps)
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
	for name, data := range map[string][]byte{
		"4x4 grid":       payload(4, 4, DefaultConfig(), make([]float64, 16)),
		"other config":   payload(3, 3, hot, make([]float64, 9)),
		"8 temperatures": payload(3, 3, DefaultConfig(), make([]float64, 8)),
		"huge dims":      payload(1<<31, 1<<31, DefaultConfig(), nil),
	} {
		if err := g.Restore(data); err == nil {
			t.Errorf("%s: restored into a 3x3 grid", name)
		}
	}
}

// TestGridSnapshotCodec checks the payload round-trips bit-exactly and that
// every malformed payload is refused and leaves the grid untouched.
func TestGridSnapshotCodec(t *testing.T) {
	src, err := NewGrid(3, 3, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	power := []float64{0.1, 0.7, 0.2, 0.9, 0.4, 0.3, 0.8, 0.5, 0.6}
	if err := src.Settle(power); err != nil {
		t.Fatal(err)
	}
	power[4] = 2.5
	if err := src.Settle(power); err != nil {
		t.Fatal(err)
	}
	good := src.Snapshot()
	dst, err := NewGrid(3, 3, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.Restore(good); err != nil {
		t.Fatal(err)
	}
	for i := range src.temps {
		if math.Float64bits(dst.temps[i]) != math.Float64bits(src.temps[i]) {
			t.Fatalf("tile %d restored as %v, want %v", i, dst.temps[i], src.temps[i])
		}
	}

	fresh, err := NewGrid(3, 3, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := fresh.Snapshot()
	nanTemp := append([]float64(nil), src.temps...)
	nanTemp[4] = math.NaN()
	infTemp := append([]float64(nil), src.temps...)
	infTemp[0] = math.Inf(1)
	nanCfg := DefaultConfig()
	nanCfg.RLateral = math.NaN()
	hugeLen := append(payload(3, 3, DefaultConfig(), nil)[:len(good)-9*8-1], binary.AppendUvarint(nil, 1<<60)...)
	bad := map[string][]byte{
		"trailing byte": append(append([]byte(nil), good...), 0),
		"NaN tile":      payload(3, 3, DefaultConfig(), nanTemp),
		"Inf tile":      payload(3, 3, DefaultConfig(), infTemp),
		"NaN config":    payload(3, 3, nanCfg, src.temps),
		"huge length":   hugeLen,
		"wrong magic":   append([]byte{'P'}, good[1:]...),
	}
	for n := 0; n < len(good); n++ {
		bad[fmt.Sprintf("cut to %d bytes", n)] = good[:n]
	}
	for name, data := range bad {
		if err := fresh.Restore(data); err == nil {
			t.Errorf("%s: restored", name)
		}
		if !bytes.Equal(fresh.Snapshot(), want) {
			t.Fatalf("%s: rejected payload changed the grid", name)
		}
	}
}
