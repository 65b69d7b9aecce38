package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"deepheal/internal/engine"
	"deepheal/internal/faultinject"
)

// bundledPolicies returns a fresh instance of every shipped policy; each
// simulator must own its policy because stateful policies mutate during Plan.
func bundledPolicies() []func() Policy {
	return []func() Policy{
		func() Policy { return &NoRecovery{} },
		func() Policy { return &PassiveRecovery{} },
		func() Policy { return DefaultDeepHealing() },
		func() Policy { return DefaultRoundRobin() },
		func() Policy { return DefaultHeatAware() },
		func() Policy { return &AdaptiveCompensation{} },
	}
}

func compareReports(t *testing.T, label string, got, want *Report) {
	t.Helper()
	if len(got.Series) != len(want.Series) {
		t.Fatalf("%s: series length %d, want %d", label, len(got.Series), len(want.Series))
	}
	for i := range want.Series {
		if got.Series[i] != want.Series[i] {
			t.Fatalf("%s: series diverged at step %d:\n got %+v\nwant %+v",
				label, i, got.Series[i], want.Series[i])
		}
	}
	if got.GuardbandFrac != want.GuardbandFrac ||
		got.FinalShiftV != want.FinalShiftV ||
		got.Availability != want.Availability ||
		got.RecoveryOverhead != want.RecoveryOverhead ||
		got.EMNucleated != want.EMNucleated ||
		got.EMFailedStep != want.EMFailedStep {
		t.Errorf("%s: report summary diverged:\n got %+v\nwant %+v", label, got, want)
	}
}

func TestCheckpointResumeBitIdentical(t *testing.T) {
	// The headline resume guarantee: run N steps, checkpoint, restore into a
	// fresh simulator, run to the horizon — the full Series must be
	// bit-identical to an uninterrupted run, for every bundled policy.
	cfg := testConfig()
	cfg.Steps = 120
	for _, fresh := range bundledPolicies() {
		name := fresh().Name()
		want := runPolicy(t, cfg, fresh())

		first, err := NewSimulator(cfg, fresh())
		if err != nil {
			t.Fatal(err)
		}
		if err := first.RunSteps(context.Background(), cfg.Steps/2); err != nil {
			t.Fatalf("%s: first half: %v", name, err)
		}
		snap, err := first.Snapshot()
		if err != nil {
			t.Fatalf("%s: snapshot: %v", name, err)
		}

		resumed, err := NewSimulator(cfg, fresh())
		if err != nil {
			t.Fatal(err)
		}
		if err := resumed.Restore(snap); err != nil {
			t.Fatalf("%s: restore: %v", name, err)
		}
		if resumed.Step() != cfg.Steps/2 {
			t.Fatalf("%s: resumed at step %d, want %d", name, resumed.Step(), cfg.Steps/2)
		}
		got, err := resumed.Run()
		if err != nil {
			t.Fatalf("%s: resumed run: %v", name, err)
		}
		compareReports(t, name, got, want)
	}
}

func TestCheckpointMidStepSequence(t *testing.T) {
	// Checkpointing repeatedly (every few steps) must not perturb the run.
	cfg := testConfig()
	cfg.Steps = 60
	want := runPolicy(t, cfg, DefaultDeepHealing())

	sim, err := NewSimulator(cfg, DefaultDeepHealing())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for sim.Step() < cfg.Steps {
		if err := sim.RunSteps(ctx, 7); err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	got, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	compareReports(t, "periodic checkpoints", got, want)
}

func TestShardedBitIdenticalToSerial(t *testing.T) {
	// The sharded wearout stage must be bit-identical to serial stepping for
	// any worker count — the engine pool's core contract at system level.
	cfg := testConfig()
	cfg.Steps = 100
	serial, err := NewSimulator(cfg, DefaultDeepHealing(), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	want, err := serial.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 4, 7} {
		sim, err := NewSimulator(cfg, DefaultDeepHealing(), WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		got, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		compareReports(t, fmt.Sprintf("workers=%d", workers), got, want)
	}
}

func TestRestoreGuards(t *testing.T) {
	cfg := testConfig()
	cfg.Steps = 20
	sim, err := NewSimulator(cfg, DefaultDeepHealing())
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.RunSteps(context.Background(), 5); err != nil {
		t.Fatal(err)
	}
	snap, err := sim.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// Different grid geometry.
	other := ConfigForGrid(3, 3)
	other.Steps = 20
	wrongGrid, err := NewSimulator(other, DefaultDeepHealing())
	if err != nil {
		t.Fatal(err)
	}
	if err := wrongGrid.Restore(snap); err == nil {
		t.Error("snapshot restored into a different grid")
	}

	// Different horizon.
	horizon := cfg
	horizon.Steps = 40
	wrongHorizon, err := NewSimulator(horizon, DefaultDeepHealing())
	if err != nil {
		t.Fatal(err)
	}
	if err := wrongHorizon.Restore(snap); err == nil {
		t.Error("snapshot restored into a different horizon")
	}

	// Different policy.
	wrongPolicy, err := NewSimulator(cfg, &NoRecovery{})
	if err != nil {
		t.Fatal(err)
	}
	if err := wrongPolicy.Restore(snap); err == nil {
		t.Error("snapshot restored under a different policy")
	}

	// Garbage bytes.
	fresh, err := NewSimulator(cfg, DefaultDeepHealing())
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Restore([]byte("not a snapshot")); err == nil {
		t.Error("garbage accepted as snapshot")
	}
}

func TestRunContextCancellation(t *testing.T) {
	cfg := testConfig()
	cfg.Steps = 500
	sim, err := NewSimulator(cfg, DefaultDeepHealing())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	if err := sim.RunSteps(ctx, 10); err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := sim.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The simulator is left on a step boundary: a fresh context resumes it
	// and the resumed run still matches an uninterrupted one.
	got, err := sim.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := runPolicy(t, cfg, DefaultDeepHealing())
	compareReports(t, "cancel+resume", got, want)
}

// TestCancelledContextRunsNoStage checks that the context is checked before
// a step starts: a cancelled context runs no stage and leaves Step() put.
func TestCancelledContextRunsNoStage(t *testing.T) {
	cfg := testConfig()
	cfg.Steps = 20
	ran := 0
	sim, err := NewSimulator(cfg, DefaultDeepHealing(),
		WithStageTime(func(engine.StageName, time.Duration) { ran++ }))
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.RunSteps(context.Background(), 5); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := ran
	if err := sim.RunSteps(ctx, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran != before || sim.Step() != 5 {
		t.Fatalf("cancelled step ran %d stages and moved to step %d", ran-before, sim.Step())
	}
}

// TestStagesRunInCanonicalOrder checks that every step runs the six stages
// once each, in canonical order.
func TestStagesRunInCanonicalOrder(t *testing.T) {
	cfg := testConfig()
	cfg.Steps = 25
	var order []engine.StageName
	sim, err := NewSimulator(cfg, DefaultDeepHealing(),
		WithStageTime(func(stage engine.StageName, _ time.Duration) { order = append(order, stage) }))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 6*cfg.Steps {
		t.Fatalf("hook called %d times, want %d", len(order), 6*cfg.Steps)
	}
	for i, stage := range order {
		if want := stageNames[i%6]; stage != want {
			t.Fatalf("call %d timed stage %s, want %s", i, stage, want)
		}
	}
}

// TestStageTimeHook checks that the hook sees the same durations StageTimes
// accumulates, for each of the six stages.
func TestStageTimeHook(t *testing.T) {
	cfg := testConfig()
	cfg.Steps = 25
	sums := map[engine.StageName]time.Duration{}
	sim, err := NewSimulator(cfg, DefaultDeepHealing(),
		WithStageTime(func(stage engine.StageName, d time.Duration) { sums[stage] += d }))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	times := sim.StageTimes()
	if len(times) != 6 {
		t.Errorf("StageTimes has %d stages, want 6", len(times))
	}
	for stage, d := range times {
		if sums[stage] != d {
			t.Errorf("stage %s: hook saw %v, StageTimes %v", stage, sums[stage], d)
		}
	}
}

// TestProgressAndStageTimeHooks drives the simulator one step at a time, as
// a caller printing progress does (`deepheal sim -progress`): Step() advances
// by one per call up to the configured total, and the stage-time hook fires
// once per stage per step.
func TestProgressAndStageTimeHooks(t *testing.T) {
	cfg := testConfig()
	cfg.Steps = 25
	stages := map[engine.StageName]int{}
	sim, err := NewSimulator(cfg, DefaultDeepHealing(),
		WithStageTime(func(stage engine.StageName, _ time.Duration) { stages[stage]++ }))
	if err != nil {
		t.Fatal(err)
	}
	var progress []int
	for sim.Step() < cfg.Steps {
		if err := sim.RunSteps(context.Background(), 1); err != nil {
			t.Fatal(err)
		}
		progress = append(progress, sim.Step())
	}
	if len(progress) != cfg.Steps || progress[0] != 1 || progress[len(progress)-1] != cfg.Steps {
		t.Errorf("progress %v, want 1..%d", progress, cfg.Steps)
	}
	for _, name := range stageNames {
		if stages[name] != cfg.Steps {
			t.Errorf("stage %s timed %d times, want %d", name, stages[name], cfg.Steps)
		}
	}
	// Finalising the report at the horizon runs no further stage, and the
	// stepped run matches an uninterrupted one.
	got, err := sim.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n := stages[engine.StagePlan]; n != cfg.Steps {
		t.Errorf("finalising the report ran %d more steps", n-cfg.Steps)
	}
	compareReports(t, "stepped", got, runPolicy(t, cfg, DefaultDeepHealing()))
}

// TestStageErrorNamesStage fails the thermal stage of the fourth step with
// an injected solver divergence (each step makes one PDN solve, then one
// thermal solve): the error names the stage, no later stage runs and the
// step does not count.
func TestStageErrorNamesStage(t *testing.T) {
	cfg := testConfig()
	cfg.Steps = 10
	var order []engine.StageName
	sim, err := NewSimulator(cfg, DefaultDeepHealing(),
		WithStageTime(func(stage engine.StageName, _ time.Duration) { order = append(order, stage) }))
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.RunSteps(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
	inj, err := faultinject.New(1, map[faultinject.Site]faultinject.Schedule{
		faultinject.SiteCGDiverge: {Occurrences: []uint64{2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(inj)
	t.Cleanup(faultinject.Disable)
	order = order[:0]
	err = sim.RunSteps(context.Background(), 1)
	var fault *faultinject.Fault
	if !errors.As(err, &fault) || !strings.Contains(err.Error(), "stage thermal") {
		t.Fatalf("err = %v, want an injected fault naming stage thermal", err)
	}
	if want := stageNames[:2]; !slices.Equal(order, want) {
		t.Errorf("stages completed %v, want %v", order, want)
	}
	if sim.Step() != 3 {
		t.Errorf("failed step moved the simulator to step %d, want 3", sim.Step())
	}
}

func TestRestoreRejectsTruncatedSnapshot(t *testing.T) {
	// A checkpoint cut short (full disk, kill during write) must be
	// rejected with an error — never a panic — and leave the simulator
	// usable, so a campaign can fall back to a fresh start.
	cfg := testConfig()
	cfg.Steps = 20
	sim, err := NewSimulator(cfg, DefaultDeepHealing())
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.RunSteps(context.Background(), 5); err != nil {
		t.Fatal(err)
	}
	snap, err := sim.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	for _, frac := range []float64{0, 0.25, 0.5, 0.9, 0.999} {
		cut := int(float64(len(snap)) * frac)
		victim, err := NewSimulator(cfg, DefaultDeepHealing())
		if err != nil {
			t.Fatal(err)
		}
		if err := victim.Restore(snap[:cut]); err == nil {
			t.Errorf("snapshot truncated to %d/%d bytes restored without error", cut, len(snap))
			continue
		}
		// The victim must still be able to run (fresh) or restore the
		// intact snapshot afterwards.
		if err := victim.Restore(snap); err != nil {
			t.Errorf("intact restore after truncated attempt failed: %v", err)
		}
	}
}
