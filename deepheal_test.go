package deepheal_test

import (
	"context"
	"math"
	"testing"
	"time"

	"deepheal"
)

// These tests exercise the public facade the way a downstream user would —
// everything here goes through the root package only.

func TestQuickstartFlow(t *testing.T) {
	dev, err := deepheal.NewBTIDevice(deepheal.DefaultBTIParams())
	if err != nil {
		t.Fatal(err)
	}
	dev.Apply(deepheal.StressAccel, deepheal.Hours(24))
	if dev.ShiftV() <= 0 {
		t.Fatal("stress produced no shift")
	}
	deep := dev.RecoveryFraction(deepheal.RecoverDeep, deepheal.Hours(6))
	passive := dev.RecoveryFraction(deepheal.RecoverPassive, deepheal.Hours(6))
	if deep < 0.65 || passive > 0.05 {
		t.Errorf("deep %.2f / passive %.2f out of expected ranges", deep, passive)
	}
}

func TestWireFlow(t *testing.T) {
	w, err := deepheal.NewWire(deepheal.DefaultEMParams())
	if err != nil {
		t.Fatal(err)
	}
	j := deepheal.MAPerCm2(7.96)
	temp := deepheal.Celsius(230)
	ttf, err := w.TimeToFailure(j, temp, deepheal.Hours(48))
	if err != nil {
		t.Fatal(err)
	}
	if min := ttf / 60; min < 800 || min > 1400 {
		t.Errorf("TTF %.0f min out of band", min)
	}
}

func TestAssistFlow(t *testing.T) {
	a, err := deepheal.NewAssist(deepheal.DefaultAssistConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SetMode(deepheal.ModeEMRecovery); err != nil {
		t.Fatal(err)
	}
	op, err := a.Operating()
	if err != nil {
		t.Fatal(err)
	}
	if op.GridCurrent >= 0 {
		t.Error("EM recovery mode must reverse the grid current")
	}
	pts, err := deepheal.AssistLoadSweep(deepheal.DefaultAssistConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Errorf("sweep points = %d", len(pts))
	}
}

func TestSystemFlow(t *testing.T) {
	cfg := deepheal.DefaultSystemConfig()
	cfg.Steps = 60
	cfg.Workloads = make([]deepheal.WorkloadProfile, cfg.NumCores())
	for i := range cfg.Workloads {
		cfg.Workloads[i] = deepheal.ConstantWorkload(0.6)
	}
	sim, err := deepheal.NewSimulator(cfg, deepheal.DefaultDeepHealing())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Series) != 60 {
		t.Errorf("series = %d", len(rep.Series))
	}
	if rep.Policy != "deep-healing" {
		t.Errorf("policy = %q", rep.Policy)
	}
}

func TestEngineFacade(t *testing.T) {
	cfg := deepheal.SystemConfigForGrid(3, 3)
	cfg.Steps = 40
	stageSeen := map[deepheal.StageName]bool{}
	sim, err := deepheal.NewSimulator(cfg, deepheal.DefaultDeepHealing(),
		deepheal.WithWorkers(2),
		deepheal.WithStageTime(func(stage deepheal.StageName, _ time.Duration) { stageSeen[stage] = true }),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.RunSteps(context.Background(), 20); err != nil {
		t.Fatal(err)
	}
	snap, err := sim.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := deepheal.NewSimulator(cfg, deepheal.DefaultDeepHealing())
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Restore(snap); err != nil {
		t.Fatal(err)
	}
	rep, err := resumed.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Series) != 40 || sim.Step() != 20 || len(stageSeen) != 6 {
		t.Errorf("series %d, step %d, stages %d", len(rep.Series), sim.Step(), len(stageSeen))
	}

	reports, err := deepheal.RunPoliciesContext(context.Background(), cfg, 2,
		&deepheal.NoRecoveryPolicy{}, deepheal.DefaultDeepHealing())
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 || reports[0].Policy != "no-recovery" {
		t.Error("RunPoliciesContext order broken")
	}
}

func TestExperimentFacade(t *testing.T) {
	ids := deepheal.ExperimentIDs()
	if len(ids) == 0 {
		t.Fatal("no experiments registered")
	}
	res, err := deepheal.RunExperiment(context.Background(), "table1")
	if err != nil {
		t.Fatal(err)
	}
	if res.ID() != "table1" || res.Format() == "" {
		t.Error("experiment facade broken")
	}
	if _, err := deepheal.RunExperiment(context.Background(), "bogus"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestMarginFacade(t *testing.T) {
	r := deepheal.MarginReduction(
		deepheal.Margin{FreshDelay: 1, WornDelay: 1.2},
		deepheal.Margin{FreshDelay: 1, WornDelay: 1.05},
	)
	if math.Abs(r-4) > 1e-9 {
		t.Errorf("reduction = %g, want 4", r)
	}
}

func TestWorkloadFacade(t *testing.T) {
	trace, err := deepheal.TraceWorkload("log", []float64{0, 10}, []float64{0.2, 0.8}, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []deepheal.WorkloadProfile{
		deepheal.ConstantWorkload(0.5),
		deepheal.PeriodicWorkload(2, 2, 0.8),
		deepheal.IoTWorkload(10, 2, 0.9),
		trace,
	} {
		v := w.At(0)
		if v < 0 || v > 1 {
			t.Errorf("%s: utilisation %g out of range", w.Name(), v)
		}
	}
	if _, err := deepheal.TraceWorkload("bad", []float64{1}, []float64{1}, false); err == nil {
		t.Error("invalid trace accepted")
	}
}

func TestBlackFacade(t *testing.T) {
	mttf, err := deepheal.DefaultBlackParams().MTTF(deepheal.MAPerCm2(7.96), deepheal.Celsius(230))
	if err != nil {
		t.Fatal(err)
	}
	if mttf <= 0 {
		t.Error("non-positive MTTF")
	}
}

func TestRNGFacade(t *testing.T) {
	a, b := deepheal.NewRNG(1), deepheal.NewRNG(1)
	if a.Float64() != b.Float64() {
		t.Error("rng not deterministic")
	}
}

func TestEMSegmentFacade(t *testing.T) {
	seg, err := deepheal.NewEMSegment(deepheal.DefaultEMReducedParams())
	if err != nil {
		t.Fatal(err)
	}
	seg.Step(deepheal.MAPerCm2(7.96), deepheal.Celsius(230), 3600)
	if seg.Progress() <= 0 {
		t.Error("segment did not accumulate progress")
	}
}
