package core

import (
	"context"
	"testing"
)

// compactSnapshotBudget is the committed byte ceiling for a mature 8x8
// reference chip's snapshot. The raw (uncompressed) container measures
// 127,657 bytes, 112,320 of them BTI occupancy, so the budget leaves about
// 2.6 % headroom and catches accidental bloat: a change that swaps a
// component codec for a self-describing one or starts journaling per-draw
// rng ops again will blow past it. It holds the line the container's
// compression used to hold; if the raw form cannot fit, compress rather
// than move the constant.
const compactSnapshotBudget = 128 << 10

func TestCompactSnapshotWithinBudget(t *testing.T) {
	cfg := ConfigForGrid(8, 8)
	cfg.Steps = 400
	cfg.Seed = 42
	sim, err := NewSimulator(cfg, DefaultDeepHealing(), WithLeanSeries())
	if err != nil {
		t.Fatal(err)
	}
	// Age the chip first: the rng journals accumulate runs and the policy
	// state fills in, so this is the snapshot's steady-state size.
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
