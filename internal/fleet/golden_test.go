package fleet

import (
	"testing"

	"deepheal/internal/golden"
)

// TestFleetCheckpointDigest pins one whole-fleet checkpoint to a committed
// digest. With MaxResident 1 every batch suspends and rehydrates chips, so
// the checkpoint holds both live and suspended compact snapshots; the
// identity tests compare two runs of one build and cannot see a change
// that moves every byte the same way.
func TestFleetCheckpointDigest(t *testing.T) {
	golden.Check(t, "testdata/checkpoint.sha256", "fleet-3chips-resident1", goldenCheckpoint(t))
}

// goldenCheckpoint builds the three-chip fleet the digest pins and returns
// its checkpoint.
func goldenCheckpoint(tb testing.TB) []byte {
	tb.Helper()
	m := NewManager(Options{Workers: 2, MaxResident: 1})
	defer m.Close()
	for _, spec := range []ChipSpec{
		{ID: "a", Steps: 60, Seed: 1},
		{ID: "b", Steps: 60, Seed: 2, Corner: "fast", Policy: "round-robin"},
		{ID: "c", Steps: 60, Seed: 3, Corner: "fast"},
	} {
		if _, err := m.Register(spec); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := m.StepAll(ctx(), 5); err != nil {
		tb.Fatal(err)
	}
	if _, err := m.Step(ctx(), "b", 1); err != nil {
		tb.Fatal(err)
	}
	blob, err := m.Checkpoint()
	if err != nil {
		tb.Fatal(err)
	}
	return blob
}
