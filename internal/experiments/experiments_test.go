package experiments

import (
	"context"
	"math"
	"strings"
	"testing"

	"deepheal/internal/golden"
)

// runAs executes experiment id through Run and returns its typed result.
func runAs[R Result](tb testing.TB, id string) R {
	tb.Helper()
	res, err := Run(context.Background(), id)
	if err != nil {
		tb.Fatal(err)
	}
	r, ok := res.(R)
	if !ok {
		tb.Fatalf("%s assembled a %T", id, res)
	}
	return r
}

func TestRegistryRunsEverything(t *testing.T) {
	if len(IDs()) < 11 {
		t.Fatalf("registry too small: %v", IDs())
	}
	if _, err := Run(context.Background(), "nope"); err == nil {
		t.Error("unknown experiment accepted")
	} else if !strings.Contains(err.Error(), "table1") {
		t.Errorf("unknown-id error should list available ids, got: %v", err)
	}
}

func TestAllResultsFormat(t *testing.T) {
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			res, err := Run(context.Background(), id)
			if err != nil {
				t.Fatal(err)
			}
			if res.ID() != id {
				t.Errorf("ID() = %q, want %q", res.ID(), id)
			}
			if res.Title() == "" {
				t.Error("empty title")
			}
			out := res.Format()
			if len(out) < 50 {
				t.Errorf("suspiciously short output: %q", out)
			}
			if strings.Contains(out, "NaN") {
				t.Error("output contains NaN")
			}
			golden.Check(t, "testdata/format.sha256", id, []byte(out))
		})
	}
}

func TestTable1MatchesPaperModel(t *testing.T) {
	res := runAs[*Table1Result](t, "table1")
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if math.Abs(row.Simulated-row.PaperModel) > 0.015 {
			t.Errorf("%s: simulated %.1f%% vs paper model %.1f%%",
				row.Case, row.Simulated*100, row.PaperModel*100)
		}
	}
	// And the ordering of the conditions must match the paper.
	for i := 1; i < 4; i++ {
		if res.Rows[i].Simulated <= res.Rows[i-1].Simulated {
			t.Errorf("condition ordering broken at row %d", i)
		}
	}
}

func TestFig4BalancedPatternStaysFlat(t *testing.T) {
	res := runAs[*Fig4Result](t, "fig4")
	if len(res.Patterns) != 3 {
		t.Fatalf("patterns = %d", len(res.Patterns))
	}
	balanced := res.Patterns[0]
	skew4 := res.Patterns[2]
	last := res.Cycles - 1

	// Balanced: practically zero relative to a one-hour stress shift.
	if frac := balanced.Residuals[last].ResidualV / res.OneHourShiftV; frac > 0.08 {
		t.Errorf("balanced residual = %.1f%% of 1 h shift, want practically zero", frac*100)
	}
	// Skewed patterns accumulate visibly more.
	if skew4.Residuals[last].ResidualV < 4*balanced.Residuals[last].ResidualV {
		t.Errorf("4:1 residual %.2f mV not >> balanced %.2f mV",
			skew4.Residuals[last].ResidualV*1000, balanced.Residuals[last].ResidualV*1000)
	}
	// Late-life slope: balanced ≈ flat, 4:1 keeps growing.
	growth := func(p Fig4Pattern) float64 {
		return p.Residuals[last].ResidualV - p.Residuals[last/2].ResidualV
	}
	if growth(skew4) < 5*growth(balanced) {
		t.Errorf("late growth: 4:1 %.3g vs balanced %.3g — separation too weak",
			growth(skew4), growth(balanced))
	}
	// Locked component ordering.
	if skew4.Residuals[last].LockedV <= balanced.Residuals[last].LockedV {
		t.Error("4:1 must lock more permanent damage than 1:1")
	}
}

func TestFig5Shape(t *testing.T) {
	res := runAs[*Fig5Result](t, "fig5")
	if res.NucleationMin < 300 || res.NucleationMin > 430 {
		t.Errorf("nucleation at %.0f min, paper ≈360", res.NucleationMin)
	}
	if res.ActiveRecovered < 0.65 {
		t.Errorf("active recovery %.0f%%, paper >75%%", res.ActiveRecovered*100)
	}
	if res.PassiveRecovered > 0.10 {
		t.Errorf("passive recovery %.0f%%, paper ≈0", res.PassiveRecovered*100)
	}
	if res.PermanentOhm < 0.2 || res.PermanentOhm > 1.0 {
		t.Errorf("permanent component %.2f Ω, paper ≈0.4", res.PermanentOhm)
	}
	rise := res.PeakOhm - res.FreshOhm
	if rise < 1.2 || rise > 3.0 {
		t.Errorf("void-growth rise %.2f Ω, paper ≈1.8", rise)
	}
	// Resistance must be flat through the nucleation phase.
	for _, s := range res.StressTrace {
		if s.TimeMin < res.NucleationMin-30 && s.ResistanceOhm > res.FreshOhm+0.01 {
			t.Errorf("resistance rose before nucleation at %.0f min", s.TimeMin)
		}
	}
}

func TestFig6Shape(t *testing.T) {
	res := runAs[*Fig6Result](t, "fig6")
	if !res.FullRecovery {
		t.Errorf("early recovery left %.3f Ω, paper shows full recovery", res.ResidualOhm)
	}
	if res.ReverseEMOnset <= 0 {
		t.Error("sustained reverse current must eventually cause reverse EM")
	}
	if res.ReverseEMOhm <= 0 {
		t.Errorf("reverse-EM rise %.3f Ω, want positive", res.ReverseEMOhm)
	}
}

func TestFig7Shape(t *testing.T) {
	res := runAs[*Fig7Result](t, "fig7")
	delay := res.ScheduledNucleationMin / res.BaselineNucleationMin
	if delay < 2.5 || delay > 4.5 {
		t.Errorf("nucleation delay %.1fx, paper ≈3x", delay)
	}
	if ext := res.ScheduledTTFMin / res.BaselineTTFMin; ext < 1.3 {
		t.Errorf("TTF extension %.2fx, paper shows significant extension", ext)
	}
}

func TestFig9Shape(t *testing.T) {
	res := runAs[*Fig9Result](t, "fig9")
	// (a) current reversal at the same magnitude.
	if res.EM.GridCurrent >= 0 || res.Normal.GridCurrent <= 0 {
		t.Error("EM recovery must reverse the grid current")
	}
	if math.Abs(math.Abs(res.EM.GridCurrent)-res.Normal.GridCurrent) > 1e-3*res.Normal.GridCurrent {
		t.Error("grid current magnitude changed between Normal and EM modes")
	}
	// (b) rail swap with pass-device droop ≈0.2–0.3 V.
	if res.BTI.LoadVSS < 0.7 || res.BTI.LoadVSS > 0.9 {
		t.Errorf("BTI-mode load VSS = %.3f, paper ≈0.816", res.BTI.LoadVSS)
	}
	if res.BTI.LoadVDD < 0.1 || res.BTI.LoadVDD > 0.3 {
		t.Errorf("BTI-mode load VDD = %.3f, paper ≈0.223", res.BTI.LoadVDD)
	}
	if len(res.SwitchTrace) == 0 {
		t.Error("missing switch transient")
	}
}

func TestFig10Shape(t *testing.T) {
	res := runAs[*Fig10Result](t, "fig10")
	if len(res.Points) != 5 {
		t.Fatalf("points = %d", len(res.Points))
	}
	last := res.Points[4]
	if last.NormalizedDelay < 1.5 || last.NormalizedDelay > 2.2 {
		t.Errorf("delay at 5 loads %.2fx, paper ≈1.8x", last.NormalizedDelay)
	}
	if last.NormalizedTSw >= 1 {
		t.Error("switching time must decrease with load size")
	}
	if (last.NormalizedDelay - 1) < (1 - last.NormalizedTSw) {
		t.Error("switching time must fall at a slower rate than the delay rises")
	}
}

func TestFig12Shape(t *testing.T) {
	res := runAs[*Fig12Result](t, "fig12")
	if len(res.Policies) != 3 {
		t.Fatalf("policies = %d", len(res.Policies))
	}
	worst := res.Policies[0].Report
	deep := res.Policies[2].Report
	if res.MarginReduction < 1.8 {
		t.Errorf("margin reduction %.2fx, want ≈2x+", res.MarginReduction)
	}
	if !worst.EMNucleated || worst.EMFailedStep < 0 {
		t.Error("worst-case system must suffer the EM failure")
	}
	if deep.EMNucleated {
		t.Error("deep healing must prevent EM nucleation")
	}
	if deep.Availability < 0.9 {
		t.Errorf("deep healing availability %.3f too low", deep.Availability)
	}
}

func TestAblationEMFrequency(t *testing.T) {
	res := runAs[*EMFreqResult](t, "ablation-em-freq")
	if len(res.Points) < 4 {
		t.Fatalf("points = %d", len(res.Points))
	}
	// Lifetime is monotone in frequency (shorter half-period never hurts)
	// and always beats DC.
	prev := res.DCTTFMin
	for _, p := range res.Points {
		if p.TTFMin < prev-1e-9 {
			t.Errorf("TTF fell at half-period %.0f min", p.PeriodMin)
		}
		prev = p.TTFMin
	}
	if !res.Points[len(res.Points)-1].Immortal {
		t.Error("high-frequency bipolar stress should be immortal within the horizon")
	}
	if res.Points[0].Immortal {
		t.Error("near-DC bipolar stress should still fail, showing the gradation")
	}
}

func TestAblationBTIConditions(t *testing.T) {
	res := runAs[*BTICondResult](t, "ablation-bti-cond")
	// Monotone in both knobs.
	for i := range res.TempsC {
		for j := range res.Volts {
			if i > 0 && res.Grid[i][j] < res.Grid[i-1][j]-1e-9 {
				t.Errorf("recovery not monotone in T at grid[%d][%d]", i, j)
			}
			if j > 0 && res.Grid[i][j] < res.Grid[i][j-1]-1e-9 {
				t.Errorf("recovery not monotone in |V| at grid[%d][%d]", i, j)
			}
		}
	}
	// The corners reproduce Table I No. 1 and No. 4.
	if math.Abs(res.Grid[0][0]-0.01) > 0.015 {
		t.Errorf("passive corner %.1f%%, want ≈1%%", res.Grid[0][0]*100)
	}
	if math.Abs(res.Grid[3][3]-0.727) > 0.02 {
		t.Errorf("deep corner %.1f%%, want ≈72.7%%", res.Grid[3][3]*100)
	}
}

func TestAblationSchedule(t *testing.T) {
	res := runAs[*ScheduleResult](t, "ablation-schedule")
	if len(res.Points) < 5 {
		t.Fatalf("points = %d", len(res.Points))
	}
	for _, p := range res.Points {
		if p.Guardband >= res.Baseline {
			t.Errorf("setting %d/%d did not improve on the %.1f%% baseline",
				p.RecoverySteps, p.MaxConcurrent, res.Baseline*100)
		}
		if p.Overhead <= 0 || p.Overhead > 0.5 {
			t.Errorf("overhead %.2f implausible", p.Overhead)
		}
	}
}
