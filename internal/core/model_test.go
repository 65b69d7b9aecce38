package core

import (
	"context"
	"testing"

	"deepheal/internal/bti"
)

func TestModelSharedAcrossSimulators(t *testing.T) {
	cfg := testConfig()
	cfg.Steps = 40
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Chip N+1 must not rediscretise the shared BTI grid.
	first, err := m.NewSimulator(DefaultDeepHealing())
	if err != nil {
		t.Fatal(err)
	}
	builds := bti.GridCacheStats().Builds
	second, err := m.NewSimulatorSeeded(DefaultDeepHealing(), cfg.Seed+1)
	if err != nil {
		t.Fatal(err)
	}
	if got := bti.GridCacheStats().Builds - builds; got != 0 {
		t.Errorf("second simulator discretised %d new grids, want 0", got)
	}

	// A model-built simulator must behave exactly like a config-built one.
	direct, err := NewSimulator(cfg, DefaultDeepHealing())
	if err != nil {
		t.Fatal(err)
	}
	repA, err := first.Run()
	if err != nil {
		t.Fatal(err)
	}
	repB, err := direct.Run()
	if err != nil {
		t.Fatal(err)
	}
	compareReports(t, "model vs direct", repA, repB)

	first.Close()
	second.Close()
	direct.Close()
}

func TestLeanSeriesKeepsAccumulators(t *testing.T) {
	cfg := testConfig()
	cfg.Steps = 50
	full, err := NewSimulator(cfg, DefaultDeepHealing())
	if err != nil {
		t.Fatal(err)
	}
	lean, err := NewSimulator(cfg, DefaultDeepHealing(), WithLeanSeries())
	if err != nil {
		t.Fatal(err)
	}
	repFull, err := full.Run()
	if err != nil {
		t.Fatal(err)
	}
	repLean, err := lean.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(repLean.Series) != 1 {
		t.Fatalf("lean series kept %d entries, want 1", len(repLean.Series))
	}
	if repLean.Series[0] != repFull.Series[len(repFull.Series)-1] {
		t.Errorf("lean last stats %+v, want %+v", repLean.Series[0], repFull.Series[len(repFull.Series)-1])
	}
	if repLean.GuardbandFrac != repFull.GuardbandFrac ||
		repLean.Availability != repFull.Availability ||
		repLean.RecoveryOverhead != repFull.RecoveryOverhead ||
		repLean.FinalShiftV != repFull.FinalShiftV {
		t.Errorf("lean accumulators diverged:\n got %+v\nwant %+v", repLean, repFull)
	}
}

func TestCompactCheckpointResumeBitIdentical(t *testing.T) {
	cfg := testConfig()
	cfg.Steps = 120
	want := runPolicy(t, cfg, DefaultDeepHealing())

	first, err := NewSimulator(cfg, DefaultDeepHealing())
	if err != nil {
		t.Fatal(err)
	}
	if err := first.RunSteps(context.Background(), 60); err != nil {
		t.Fatal(err)
	}
	compact, err := first.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	resumed, err := NewSimulator(cfg, DefaultDeepHealing())
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Restore(compact); err != nil {
		t.Fatal(err)
	}
	got, err := resumed.Run()
	if err != nil {
		t.Fatal(err)
	}
	compareReports(t, "compact resume", got, want)
}

func TestCompactCheckpointLeanFleetShape(t *testing.T) {
	// The fleet combination: lean series + compact snapshot, suspended and
	// rehydrated mid-run, must finish bit-identically to an uninterrupted
	// lean run.
	cfg := testConfig()
	cfg.Steps = 80
	uninterrupted, err := NewSimulator(cfg, DefaultDeepHealing(), WithLeanSeries())
	if err != nil {
		t.Fatal(err)
	}
	want, err := uninterrupted.Run()
	if err != nil {
		t.Fatal(err)
	}

	sim, err := NewSimulator(cfg, DefaultDeepHealing(), WithLeanSeries())
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.RunSteps(context.Background(), 37); err != nil {
		t.Fatal(err)
	}
	blob, err := sim.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sim.Close()

	re, err := NewSimulator(cfg, DefaultDeepHealing(), WithLeanSeries())
	if err != nil {
		t.Fatal(err)
	}
	if err := re.Restore(blob); err != nil {
		t.Fatal(err)
	}
	got, err := re.Run()
	if err != nil {
		t.Fatal(err)
	}
	compareReports(t, "lean compact resume", got, want)

	// Mode mismatch is refused rather than silently misaccounted.
	fullMode, err := NewSimulator(cfg, DefaultDeepHealing())
	if err != nil {
		t.Fatal(err)
	}
	if err := fullMode.Restore(blob); err == nil {
		t.Error("lean snapshot accepted by a full-series simulator")
	}
}

func TestProgressAccessor(t *testing.T) {
	cfg := testConfig()
	cfg.Steps = 25
	sim, err := NewSimulator(cfg, DefaultDeepHealing())
	if err != nil {
		t.Fatal(err)
	}
	p0 := sim.Progress()
	if p0.Step != 0 || p0.Steps != cfg.Steps || p0.Availability != 1 {
		t.Errorf("fresh progress %+v", p0)
	}
	if len(p0.SensedShiftV) != cfg.NumCores() {
		t.Errorf("fresh progress carries %d sensed shifts, want %d", len(p0.SensedShiftV), cfg.NumCores())
	}
	if err := sim.RunSteps(context.Background(), 10); err != nil {
		t.Fatal(err)
	}
	p := sim.Progress()
	if p.Step != 10 || p.Last.Step != 9 {
		t.Errorf("progress after 10 steps: step %d, last %d", p.Step, p.Last.Step)
	}
	if p.GuardbandFrac < 0 || p.Availability <= 0 || p.Availability > 1.01 {
		t.Errorf("implausible progress %+v", p)
	}
}
