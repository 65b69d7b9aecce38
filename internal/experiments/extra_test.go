package experiments

import (
	"testing"
)

func TestPolicyZooShape(t *testing.T) {
	res := runAs[*PolicyZooResult](t, "ablation-policies")
	if len(res.Reports) != 6 {
		t.Fatalf("reports = %d", len(res.Reports))
	}
	byName := map[string]int{}
	for i, rep := range res.Reports {
		byName[rep.Policy] = i
	}
	worst := res.Reports[byName["no-recovery"]]
	// Compensation-only baselines neither heal nor protect the grid.
	for _, name := range []string{"no-recovery", "adaptive-compensation", "passive"} {
		rep := res.Reports[byName[name]]
		if rep.EMFailedStep < 0 {
			t.Errorf("%s: grid should fail without reverse intervals", name)
		}
		if rep.RecoveryOverhead != 0 {
			t.Errorf("%s: unexpected recovery overhead", name)
		}
	}
	// Every active-recovery discipline prevents the failure and roughly
	// halves the guardband.
	for _, name := range []string{"round-robin", "deep-healing", "heat-aware"} {
		rep := res.Reports[byName[name]]
		if rep.EMFailedStep >= 0 || rep.EMNucleated {
			t.Errorf("%s: grid EM not prevented", name)
		}
		if rep.GuardbandFrac > 0.6*worst.GuardbandFrac {
			t.Errorf("%s: guardband %.1f%% not well below baseline %.1f%%",
				name, rep.GuardbandFrac*100, worst.GuardbandFrac*100)
		}
	}
	// Heat-aware placement is at least as good as blind rotation on the
	// end-of-life shift.
	if res.Reports[byName["heat-aware"]].FinalShiftV > res.Reports[byName["round-robin"]].FinalShiftV+1e-6 {
		t.Error("heat-aware placement should not lose to blind rotation")
	}
}

func TestRebalanceAblationOrdering(t *testing.T) {
	res := runAs[*RebalanceResult](t, "ablation-rebalance")
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Strictly improving ladder: none > rebalanced > boost > deep healing.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].ShiftV >= res.Rows[i-1].ShiftV {
			t.Errorf("shift ladder broken at %q", res.Rows[i].Strategy)
		}
		if res.Rows[i].PermanentV > res.Rows[i-1].PermanentV+1e-12 {
			t.Errorf("permanent ladder broken at %q", res.Rows[i].Strategy)
		}
	}
	deep := res.Rows[3]
	if deep.ShiftV > 0.1*res.Rows[1].ShiftV {
		t.Errorf("deep healing %.2f mV not far below rebalancing %.2f mV",
			deep.ShiftV*1000, res.Rows[1].ShiftV*1000)
	}
	if deep.PermanentV > 0.001 {
		t.Errorf("deep healing left %.2f mV permanent", deep.PermanentV*1000)
	}
}

func TestVariationStudy(t *testing.T) {
	res := runAs[*VariationResult](t, "variation")
	if res.StressOnly.StdV <= 0 || res.DeepHealed.StdV <= 0 {
		t.Error("population spread missing")
	}
	if res.TailReduction < 5 {
		t.Errorf("tail reduction %.1fx, expected large", res.TailReduction)
	}
	// Healing must tighten the absolute spread, not just shift the mean.
	if res.DeepHealed.StdV >= res.StressOnly.StdV {
		t.Error("healing did not tighten the distribution")
	}
	if res.DeepHealed.WorstV >= res.StressOnly.MeanV {
		t.Error("healed worst case should beat the stressed mean")
	}
}
