package core

import (
	"context"
	"encoding/binary"
	"math"
	"testing"

	"deepheal/internal/engine"
)

// fuzzModel builds the smallest die that builds (a 2x2 PDN mesh is all
// pads), shared by every simulator a fuzz or regression case restores into.
func fuzzModel(tb testing.TB) *Model {
	tb.Helper()
	cfg := ConfigForGrid(3, 3)
	cfg.Steps = 40
	m, err := NewModel(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// leanSim builds a fresh lean deep-healing simulator over m.
func leanSim(tb testing.TB, m *Model) *Simulator {
	tb.Helper()
	sim, err := m.NewSimulator(DefaultDeepHealing(), WithLeanSeries())
	if err != nil {
		tb.Fatal(err)
	}
	return sim
}

// snapshotCores counts the BTI core components of a decoded snapshot.
func snapshotCores(snap *engine.SystemSnapshot) int {
	n := 0
	for ; ; n++ {
		if _, ok := snap.Components[snapCore(n)]; !ok {
			return n
		}
	}
}

// withComponent replaces one component payload of a snapshot, leaving every
// other component as it was.
func withComponent(tb testing.TB, blob []byte, name string, edit func([]byte) []byte) []byte {
	tb.Helper()
	snap, err := engine.DecodeSystemSnapshot(blob)
	if err != nil {
		tb.Fatal(err)
	}
	data, err := snap.Bytes(name)
	if err != nil {
		tb.Fatal(err)
	}
	snap.Components[name] = edit(data)
	out, err := snap.Encode()
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// tamperSimState rewrites the core/sim payload of a snapshot, leaving every
// other component as it was.
func tamperSimState(tb testing.TB, blob []byte, mut func(*simState)) []byte {
	tb.Helper()
	snap, err := engine.DecodeSystemSnapshot(blob)
	if err != nil {
		tb.Fatal(err)
	}
	cores := snapshotCores(snap)
	return withComponent(tb, blob, snapSim, func(data []byte) []byte {
		state, err := decodeSimState(data, cores)
		if err != nil {
			tb.Fatal(err)
		}
		mut(&state)
		return state.encode()
	})
}

// maturedSnapshot runs a lean simulator over m for a few steps and
// snapshots it.
func maturedSnapshot(tb testing.TB, m *Model) []byte {
	tb.Helper()
	sim := leanSim(tb, m)
	if err := sim.RunSteps(context.Background(), 10); err != nil {
		tb.Fatal(err)
	}
	blob, err := sim.Snapshot()
	if err != nil {
		tb.Fatal(err)
	}
	return blob
}

// TestRestoreRejectsMisSizedPerCoreState checks per-core slices in the sim
// state must match the chip: a short one would restore and then index out
// of range on the next step.
func TestRestoreRejectsMisSizedPerCoreState(t *testing.T) {
	m := fuzzModel(t)
	blob := maturedSnapshot(t, m)
	for name, mut := range map[string]func(*simState){
		"short LastTemps":   func(s *simState) { s.LastTemps = s.LastTemps[:1] },
		"nil LastTemps":     func(s *simState) { s.LastTemps = nil },
		"short SensedShift": func(s *simState) { s.SensedShift = s.SensedShift[:1] },
		"long SensedShift":  func(s *simState) { s.SensedShift = append(s.SensedShift, 0) },
		"short PrevModes":   func(s *simState) { s.PrevModes = s.PrevModes[:1] },
	} {
		sim := leanSim(t, m)
		if err := sim.Restore(tamperSimState(t, blob, mut)); err == nil {
			t.Errorf("%s: restored without error", name)
		}
	}

	// A snapshot from before the first step carries no previous modes.
	fresh := leanSim(t, m)
	blob0, err := fresh.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sim := leanSim(t, m)
	if err := sim.Restore(blob0); err != nil {
		t.Fatalf("step-0 snapshot: %v", err)
	}
	if err := sim.RunSteps(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
}

// TestRestoredPolicyStateOfWrongSize checks deep-healing countdowns for
// another core count, which Restore cannot size-check because policy state
// is opaque to it, fail the next step with an error instead of a panic.
func TestRestoredPolicyStateOfWrongSize(t *testing.T) {
	m := fuzzModel(t)
	countdowns := (&DeepHealing{remaining: []int{0}}).SnapshotState()
	blob := tamperSimState(t, maturedSnapshot(t, m), func(s *simState) { s.PolicyState = countdowns })
	sim := leanSim(t, m)
	if err := sim.Restore(blob); err != nil {
		t.Fatal(err)
	}
	if err := sim.RunSteps(context.Background(), 1); err == nil {
		t.Error("step after restoring one countdown for nine cores succeeded")
	}
}

// FuzzRestoreSimulator feeds arbitrary bytes to Simulator.Restore on a
// fresh 3x3 chip and, when the restore succeeds, steps it once. Neither may
// panic: anything Restore accepts must be safe to run.
func FuzzRestoreSimulator(f *testing.F) {
	m := fuzzModel(f)
	blob := maturedSnapshot(f, m)
	f.Add(blob)
	for _, frac := range []float64{0, 0.25, 0.5, 0.9} {
		f.Add(blob[:int(float64(len(blob))*frac)])
	}
	f.Add(tamperSimState(f, blob, func(s *simState) { s.LastTemps = s.LastTemps[:1] }))
	// One seed per hand-framed payload: a grid cut short, a grid with a
	// NaN, a step-0 state with no previous modes, countdowns for another
	// core count, and a sensor journal past the replay bound.
	f.Add(withComponent(f, blob, snapThermal, func(d []byte) []byte { return d[:len(d)-3] }))
	f.Add(withComponent(f, blob, snapPDN, func(d []byte) []byte {
		d = append([]byte(nil), d...)
		binary.LittleEndian.PutUint64(d[len(d)-8:], math.Float64bits(math.NaN()))
		return d
	}))
	f.Add(tamperSimState(f, blob, func(s *simState) { s.PrevModes, s.PolicyState = nil, nil }))
	f.Add(tamperSimState(f, blob, func(s *simState) {
		s.PolicyState = (&DeepHealing{remaining: []int{1, 0}}).SnapshotState()
	}))
	f.Add(withComponent(f, blob, snapROSensor(0), longJournal))

	f.Fuzz(func(t *testing.T, data []byte) {
		sim := leanSim(t, m)
		if err := sim.Restore(data); err != nil {
			return
		}
		_ = sim.RunSteps(context.Background(), 1)
	})
}
