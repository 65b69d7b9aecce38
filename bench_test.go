package deepheal_test

import (
	"context"
	"fmt"
	"testing"

	"deepheal"
	"deepheal/internal/experiments"
)

// The benchmarks below regenerate every table and figure of the paper's
// evaluation (one benchmark per artefact) and report the headline
// reproduced quantity as a custom metric, so `go test -bench=.` doubles as
// the full reproduction harness. EXPERIMENTS.md records the values.

// runAs executes experiment id through experiments.Run and returns its
// typed result.
func runAs[R experiments.Result](tb testing.TB, id string) R {
	tb.Helper()
	res, err := experiments.Run(context.Background(), id)
	if err != nil {
		tb.Fatal(err)
	}
	r, ok := res.(R)
	if !ok {
		tb.Fatalf("%s assembled a %T", id, res)
	}
	return r
}

// BenchmarkTable1BTIRecovery regenerates Table I.
func BenchmarkTable1BTIRecovery(b *testing.B) {
	var last *experiments.Table1Result
	for i := 0; i < b.N; i++ {
		last = runAs[*experiments.Table1Result](b, "table1")
	}
	for i, row := range last.Rows {
		b.ReportMetric(row.Simulated*100, fmt.Sprintf("no%d_rec_%%", i+1))
	}
}

// BenchmarkFig4PermanentBTI regenerates Fig. 4.
func BenchmarkFig4PermanentBTI(b *testing.B) {
	var last *experiments.Fig4Result
	for i := 0; i < b.N; i++ {
		last = runAs[*experiments.Fig4Result](b, "fig4")
	}
	final := last.Cycles - 1
	b.ReportMetric(last.Patterns[0].Residuals[final].ResidualV*1e3, "residual_1to1_mV")
	b.ReportMetric(last.Patterns[2].Residuals[final].ResidualV*1e3, "residual_4to1_mV")
}

// BenchmarkFig5EMRecovery regenerates Fig. 5.
func BenchmarkFig5EMRecovery(b *testing.B) {
	var last *experiments.Fig5Result
	for i := 0; i < b.N; i++ {
		last = runAs[*experiments.Fig5Result](b, "fig5")
	}
	b.ReportMetric(last.NucleationMin, "nucleation_min")
	b.ReportMetric(last.ActiveRecovered*100, "active_rec_%")
	b.ReportMetric(last.PassiveRecovered*100, "passive_rec_%")
	b.ReportMetric(last.PermanentOhm, "permanent_ohm")
}

// BenchmarkFig6EMFullRecovery regenerates Fig. 6.
func BenchmarkFig6EMFullRecovery(b *testing.B) {
	var last *experiments.Fig6Result
	for i := 0; i < b.N; i++ {
		last = runAs[*experiments.Fig6Result](b, "fig6")
	}
	b.ReportMetric(last.ResidualOhm, "residual_ohm")
	b.ReportMetric(last.ReverseEMOnset, "reverse_em_onset_min")
}

// BenchmarkFig7ScheduledEM regenerates Fig. 7.
func BenchmarkFig7ScheduledEM(b *testing.B) {
	var last *experiments.Fig7Result
	for i := 0; i < b.N; i++ {
		last = runAs[*experiments.Fig7Result](b, "fig7")
	}
	b.ReportMetric(last.ScheduledNucleationMin/last.BaselineNucleationMin, "nucleation_delay_x")
	b.ReportMetric(last.ScheduledTTFMin/last.BaselineTTFMin, "ttf_extension_x")
}

// BenchmarkFig9AssistCircuit regenerates Fig. 9.
func BenchmarkFig9AssistCircuit(b *testing.B) {
	var last *experiments.Fig9Result
	for i := 0; i < b.N; i++ {
		last = runAs[*experiments.Fig9Result](b, "fig9")
	}
	b.ReportMetric(last.BTI.LoadVSS, "bti_load_vss_V")
	b.ReportMetric(last.BTI.LoadVDD, "bti_load_vdd_V")
	b.ReportMetric(last.EM.GridCurrent*1e6, "em_grid_uA")
}

// BenchmarkFig10LoadSizing regenerates Fig. 10.
func BenchmarkFig10LoadSizing(b *testing.B) {
	var last *experiments.Fig10Result
	for i := 0; i < b.N; i++ {
		last = runAs[*experiments.Fig10Result](b, "fig10")
	}
	final := last.Points[len(last.Points)-1]
	b.ReportMetric(final.NormalizedDelay, "delay_5loads_x")
	b.ReportMetric(final.NormalizedTSw, "tsw_5loads_x")
}

// BenchmarkFig12SystemSchedule regenerates Fig. 12(b).
func BenchmarkFig12SystemSchedule(b *testing.B) {
	var last *experiments.Fig12Result
	for i := 0; i < b.N; i++ {
		last = runAs[*experiments.Fig12Result](b, "fig12")
	}
	b.ReportMetric(last.MarginReduction, "margin_reduction_x")
	b.ReportMetric(last.Policies[0].Report.GuardbandFrac*100, "worstcase_guardband_%")
	b.ReportMetric(last.Policies[2].Report.GuardbandFrac*100, "deepheal_guardband_%")
}

// BenchmarkAblationEMFrequency regenerates ablation A1.
func BenchmarkAblationEMFrequency(b *testing.B) {
	var last *experiments.EMFreqResult
	for i := 0; i < b.N; i++ {
		last = runAs[*experiments.EMFreqResult](b, "ablation-em-freq")
	}
	b.ReportMetric(last.DCTTFMin, "dc_ttf_min")
	b.ReportMetric(last.Points[0].TTFMin/last.DCTTFMin, "slowest_ac_gain_x")
}

// BenchmarkAblationBTIConditions regenerates ablation A2.
func BenchmarkAblationBTIConditions(b *testing.B) {
	var last *experiments.BTICondResult
	for i := 0; i < b.N; i++ {
		last = runAs[*experiments.BTICondResult](b, "ablation-bti-cond")
	}
	b.ReportMetric(last.Grid[len(last.TempsC)-1][len(last.Volts)-1]*100, "max_rec_%")
}

// BenchmarkAblationScheduleGranularity regenerates ablation A3.
func BenchmarkAblationScheduleGranularity(b *testing.B) {
	var last *experiments.ScheduleResult
	for i := 0; i < b.N; i++ {
		last = runAs[*experiments.ScheduleResult](b, "ablation-schedule")
	}
	best := last.Baseline
	for _, p := range last.Points {
		if p.Guardband < best {
			best = p.Guardband
		}
	}
	b.ReportMetric(last.Baseline/best, "best_guardband_gain_x")
}

// BenchmarkAblationPolicyZoo regenerates ablation A4.
func BenchmarkAblationPolicyZoo(b *testing.B) {
	var last *experiments.PolicyZooResult
	for i := 0; i < b.N; i++ {
		last = runAs[*experiments.PolicyZooResult](b, "ablation-policies")
	}
	b.ReportMetric(last.Reports[0].GuardbandFrac*100, "worst_guardband_%")
	b.ReportMetric(last.Reports[len(last.Reports)-1].GuardbandFrac*100, "heataware_guardband_%")
}

// BenchmarkAblationRebalance regenerates ablation A5.
func BenchmarkAblationRebalance(b *testing.B) {
	var last *experiments.RebalanceResult
	for i := 0; i < b.N; i++ {
		last = runAs[*experiments.RebalanceResult](b, "ablation-rebalance")
	}
	b.ReportMetric(last.Rows[1].ShiftV*1e3, "rebalanced_mV")
	b.ReportMetric(last.Rows[3].ShiftV*1e3, "deepheal_mV")
}

// BenchmarkVariationStudy regenerates the population study.
func BenchmarkVariationStudy(b *testing.B) {
	var last *experiments.VariationResult
	for i := 0; i < b.N; i++ {
		last = runAs[*experiments.VariationResult](b, "variation")
	}
	b.ReportMetric(last.TailReduction, "tail_reduction_x")
}

// Kernel micro-benchmarks: the hot paths behind the experiments.

// BenchmarkBTIStressHour measures one hour of CET-map evolution.
func BenchmarkBTIStressHour(b *testing.B) {
	dev := deepheal.MustNewBTIDevice(deepheal.DefaultBTIParams())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dev.Apply(deepheal.StressAccel, deepheal.Hours(1))
	}
}

// BenchmarkKorhonenStep measures one implicit PDE step of the wire model.
func BenchmarkKorhonenStep(b *testing.B) {
	w := deepheal.MustNewWire(deepheal.DefaultEMParams())
	j := deepheal.MAPerCm2(7.96)
	temp := deepheal.Celsius(230)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Step(j, temp, 30)
		if w.Broken() {
			w.Reset()
		}
	}
}

// BenchmarkAssistDC measures one nonlinear DC solve of the assist netlist.
func BenchmarkAssistDC(b *testing.B) {
	a, err := deepheal.NewAssist(deepheal.DefaultAssistConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Operating(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSystemStep measures the per-step cost of the system simulator
// via a short horizon run.
func BenchmarkSystemStep(b *testing.B) {
	cfg := deepheal.DefaultSystemConfig()
	cfg.Steps = 50
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim, err := deepheal.NewSimulator(cfg, deepheal.DefaultDeepHealing())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCampaign runs the full registered experiment suite through the
// campaign engine at the given worker count, so the serial/parallel pair
// below measures the wall-clock effect of fanning points across cores
// (identical output is asserted by TestOutputIdentity/parallel in
// internal/experiments).
func benchCampaign(b *testing.B, workers int) {
	for i := 0; i < b.N; i++ {
		if _, err := deepheal.RunCampaign(context.Background(), nil, deepheal.CampaignOptions{Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCampaignAllSerial is the whole suite on one worker.
func BenchmarkCampaignAllSerial(b *testing.B) { benchCampaign(b, 1) }

// BenchmarkCampaignAllParallel is the whole suite on one worker per CPU;
// the ratio to BenchmarkCampaignAllSerial is the multi-core speedup.
func BenchmarkCampaignAllParallel(b *testing.B) { benchCampaign(b, 0) }
