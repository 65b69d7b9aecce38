package fleet

import (
	"bytes"
	"testing"
)

// FuzzRestoreFleet feeds arbitrary bytes to Manager.Restore, which decodes
// the container, the fleet/meta entry and every chip's spec, compact state
// and status JSON. It must never panic, and an accepted input must reach a
// fixed point: its Checkpoint restores into a fresh manager whose own
// Checkpoint is the same bytes. Seeded with the golden-test checkpoint and
// its truncations.
func FuzzRestoreFleet(f *testing.F) {
	blob := goldenCheckpoint(f)
	f.Add(blob)
	for _, n := range []int{len(blob) - 1, len(blob) / 2, 64, 8, 0} {
		f.Add(blob[:n])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m := NewManager(Options{Workers: 1})
		defer m.Close()
		if m.Restore(data) != nil {
			return
		}
		first, err := m.Checkpoint()
		if err != nil {
			t.Fatalf("checkpoint of an accepted restore: %v", err)
		}
		re := NewManager(Options{Workers: 1})
		defer re.Close()
		if err := re.Restore(first); err != nil {
			t.Fatalf("restoring the re-encoded checkpoint: %v", err)
		}
		second, err := re.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("checkpoint not a fixed point: %d bytes then %d", len(first), len(second))
		}
	})
}
