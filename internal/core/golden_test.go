package core

import (
	"context"
	"fmt"
	"testing"

	"deepheal/internal/golden"
)

// TestDeepHealingPrefixDigest pins the first 20 steps of a 16×16
// deep-healing die to a committed digest. The prefix runs every BTI sweep
// path the chip reaches: cached-kernel hits (step 0), phase scratch kernels
// with separable remainders, the rest collapse of gated and recovering
// cores, kernel promotion until the cache fills (step 14) and the full-cache
// misses after it.
func TestDeepHealingPrefixDigest(t *testing.T) {
	sim, err := NewSimulator(ConfigForGrid(16, 16), DefaultDeepHealing(), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.RunSteps(context.Background(), 20); err != nil {
		t.Fatal(err)
	}
	out := fmt.Sprintf("%+v\n%+v\n", *sim.report(), sim.Progress())
	golden.Check(t, "testdata/prefix.sha256", "deep-healing-16x16-20", []byte(out))
}
