package core

import (
	"context"
	"testing"
)

// compactSnapshotBudget is the committed byte ceiling for a mature 8x8
// reference chip's snapshot. Measured at ~97 KB (DEFLATE at BestSpeed; the
// RLE rng journal keeps it flat with age), the budget adds ~35 % headroom
// for legitimate format evolution while catching accidental bloat: a
// change that swaps a component codec for a self-describing one, forgets
// the byte-plane shuffle, or starts journaling per-draw rng ops again will
// blow well past it. If you grow the format deliberately, re-measure and
// move the constant in the same change.
const compactSnapshotBudget = 128 << 10

func TestCompactSnapshotWithinBudget(t *testing.T) {
	cfg := ConfigForGrid(8, 8)
	cfg.Steps = 400
	cfg.Seed = 42
	sim, err := NewSimulator(cfg, DefaultDeepHealing(), WithLeanSeries())
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	// Age the chip first: occupancy grids decompress poorly once populated
	// and the rng journals have accumulated runs, so this is the snapshot's
	// steady-state size, not the trivially small fresh one.
	if err := sim.RunSteps(context.Background(), 200); err != nil {
		t.Fatal(err)
	}
	snap, err := sim.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) > compactSnapshotBudget {
		t.Errorf("mature 8x8 snapshot is %d bytes, budget %d — if this growth is intentional, re-measure and update compactSnapshotBudget",
			len(snap), compactSnapshotBudget)
	}
}
