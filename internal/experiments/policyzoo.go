package experiments

import (
	"fmt"

	"deepheal/internal/campaign"
	"deepheal/internal/core"
	"deepheal/internal/workload"
)

// workloadProfile aliases the workload interface for the asymmetric setup.
type workloadProfile = workload.Profile

// busyProfile is a hot sustained service (90 % utilisation).
type busyProfile struct{}

func (busyProfile) At(int) float64 { return 0.9 }
func (busyProfile) Name() string   { return "busy(0.9)" }

// darkProfile is a mostly-idle block (10 % utilisation) — the dark-silicon
// half of the die.
type darkProfile struct{}

func (darkProfile) At(int) float64 { return 0.1 }
func (darkProfile) Name() string   { return "dark(0.1)" }

// PolicyZooResult is the A4 ablation: every scheduling policy in the
// library — the paper's proposal, its heat-aware refinement, and the
// baselines from the paper's related work — over the same system and
// workload.
type PolicyZooResult struct {
	Reports []*core.Report
}

var _ Result = (*PolicyZooResult)(nil)

// ID implements Result.
func (*PolicyZooResult) ID() string { return "ablation-policies" }

// Title implements Result.
func (*PolicyZooResult) Title() string {
	return "Ablation A4 — scheduling policy zoo (paper proposal vs. related-work baselines)"
}

// Format implements Result.
func (r *PolicyZooResult) Format() string {
	t := &table{header: []string{"Policy", "Guardband", "Final ΔVth (mV)", "EM failed", "Availability", "Overhead"}}
	for _, rep := range r.Reports {
		fail := "-"
		if rep.EMFailedStep >= 0 {
			fail = fmt.Sprintf("step %d", rep.EMFailedStep)
		}
		t.add(rep.Policy,
			fmt.Sprintf("%.1f%%", rep.GuardbandFrac*100),
			fmt.Sprintf("%.1f", rep.FinalShiftV*1000),
			fail,
			fmt.Sprintf("%.3f", rep.Availability),
			fmt.Sprintf("%.1f%%", rep.RecoveryOverhead*100))
	}
	out := t.String()
	out += "\ncompensation-only baselines track wearout but the hardware still degrades and the\n" +
		"grid still fails; every active-recovery discipline reaches a similar guardband floor\n" +
		"(set by the trap population a 1 h interval cannot empty — see ablation A3 for the\n" +
		"occupancy knob), with heat-aware placement giving the best end-of-life shift\n"
	return out
}

// PlanPolicyZoo declares one simulation point per library policy over an
// *asymmetric* system: half the die runs hot sustained services while the
// other half is mostly dark. This is where scheduling discipline matters —
// a blind rotation spends half its recovery budget on cores that barely
// age, while the sensor-driven schedulers focus on the busy half.
func PlanPolicyZoo() campaign.Task {
	cfg := core.DefaultConfig()
	cfg.Steps = 1200
	n := cfg.NumCores()
	cfg.Workloads = make([]workloadProfile, n)
	for i := range cfg.Workloads {
		if i%cfg.Cols < cfg.Cols/2 {
			cfg.Workloads[i] = busyProfile{}
		} else {
			cfg.Workloads[i] = darkProfile{}
		}
	}

	zoo := []struct {
		slug string
		pol  func() core.Policy
	}{
		{"no-recovery", func() core.Policy { return &core.NoRecovery{} }},
		{"adaptive-compensation", func() core.Policy { return &core.AdaptiveCompensation{} }},
		{"passive", func() core.Policy { return &core.PassiveRecovery{} }},
		{"round-robin", func() core.Policy { return core.DefaultRoundRobin() }},
		{"deep-healing", func() core.Policy { return core.DefaultDeepHealing() }},
		{"heat-aware", func() core.Policy { return core.DefaultHeatAware() }},
	}
	t := campaign.Task{ID: "ablation-policies"}
	for _, z := range zoo {
		t.Points = append(t.Points, simPoint("ablation-policies/"+z.slug, cfg, z.pol))
	}
	t.Assemble = func(results []any) (any, error) {
		res := &PolicyZooResult{}
		for _, r := range results {
			res.Reports = append(res.Reports, r.(*core.Report))
		}
		return res, nil
	}
	return t
}
