package experiments

import (
	"context"
	"fmt"

	"deepheal/internal/campaign"
	"deepheal/internal/scenario"
)

// The scenario-zoo experiments: each registered victim structure
// (internal/scenario) becomes a campaign experiment sweeping healing
// schedules — the same stress delivered with more or less scheduled active
// recovery — so the paper's recovery-activation argument is evaluated per
// structure, not just on the many-core chip.

// zooSchedule is one healing-schedule ablation setting.
type zooSchedule struct {
	// Key is the point-key suffix; Label the display name.
	Key, Label string
	// HealEvery gives every HealEvery-th step to recovery; 0 disables.
	HealEvery int
}

// scenarioPoint declares one aging run of a described structure as a
// campaign point: content-hashed over the full description (topology,
// conditions, sampled duty traces, readout, variation) plus the run shape,
// so identical runs memoise across experiments and distribute by hash.
func scenarioPoint(key string, d *scenario.Description, steps, healEvery int, seed int64) campaign.Point {
	hash := campaign.Hash(d.HashParts(steps, healEvery, seed)...)
	return campaign.NewPoint(key, hash, func(ctx context.Context) (*scenario.RunResult, error) {
		in, err := scenario.New(d, seed)
		if err != nil {
			return nil, err
		}
		return in.Run(ctx, steps, healEvery)
	})
}

// StructureResult is a healing-schedule ablation over one zoo structure.
type StructureResult struct {
	ExpID, ExpTitle string
	// Kind selects the readout rendering: "delay" (critical-path, larger
	// is worse) or "margin" (bit margin, smaller is worse).
	Kind      string
	Schedules []StructureSchedule
}

// StructureSchedule is one schedule's outcome.
type StructureSchedule struct {
	Label     string
	HealEvery int
	Run       scenario.RunResult
}

var _ Result = (*StructureResult)(nil)

// ID implements Result.
func (r *StructureResult) ID() string { return r.ExpID }

// Title implements Result.
func (r *StructureResult) Title() string { return r.ExpTitle }

// DegradationPct is the relative delay degradation of one run in percent.
func degradationPct(run scenario.RunResult) float64 {
	return (run.Metric/run.Fresh - 1) * 100
}

// Format implements Result.
func (r *StructureResult) Format() string {
	var t *table
	switch r.Kind {
	case "margin":
		t = &table{header: []string{"Schedule", "margin (mV)", "lost (mV)", "worst ΔVth (mV)", "mean ΔVth (mV)", "overhead (%)"}}
		for _, s := range r.Schedules {
			t.add(s.Label,
				fmt.Sprintf("%.2f", s.Run.Metric*1000),
				fmt.Sprintf("%.2f", (s.Run.Fresh-s.Run.Metric)*1000),
				fmt.Sprintf("%.2f", s.Run.WorstShiftV*1000),
				fmt.Sprintf("%.2f", s.Run.MeanShiftV*1000),
				fmt.Sprintf("%.1f", s.Run.HealOverheadFrac()*100))
		}
	default:
		t = &table{header: []string{"Schedule", "path delay (a.u.)", "degradation (%)", "worst ΔVth (mV)", "mean ΔVth (mV)", "overhead (%)"}}
		for _, s := range r.Schedules {
			t.add(s.Label,
				fmt.Sprintf("%.4f", s.Run.Metric),
				fmt.Sprintf("%.2f", degradationPct(s.Run)),
				fmt.Sprintf("%.2f", s.Run.WorstShiftV*1000),
				fmt.Sprintf("%.2f", s.Run.MeanShiftV*1000),
				fmt.Sprintf("%.1f", s.Run.HealOverheadFrac()*100))
		}
	}
	return t.String() + r.headline()
}

// headline compares the unhealed baseline against the best schedule.
func (r *StructureResult) headline() string {
	if len(r.Schedules) < 2 {
		return ""
	}
	base, best := r.Schedules[0], r.Schedules[0]
	for _, s := range r.Schedules[1:] {
		if s.HealEvery == 0 {
			continue
		}
		better := false
		switch r.Kind {
		case "margin":
			better = s.Run.Metric > best.Run.Metric || best.HealEvery == 0
		default:
			better = s.Run.Metric < best.Run.Metric || best.HealEvery == 0
		}
		if better {
			best = s
		}
	}
	if best.HealEvery == 0 {
		return ""
	}
	switch r.Kind {
	case "margin":
		return fmt.Sprintf("\nbest schedule (%s) reclaims %.2f mV of bit margin at %.1f%% overhead\n",
			best.Label, (best.Run.Metric-base.Run.Metric)*1000, best.Run.HealOverheadFrac()*100)
	default:
		red := degradationPct(base.Run) / degradationPct(best.Run)
		return fmt.Sprintf("\nbest schedule (%s) cuts worst-path degradation %.1fx at %.1f%% overhead\n",
			best.Label, red, best.Run.HealOverheadFrac()*100)
	}
}

// planStructure declares one structure's healing-schedule ablation.
func planStructure(id, scenarioName, kind string, steps int, seed int64, schedules []zooSchedule) campaign.Task {
	d, ok := scenario.Lookup(scenarioName)
	if !ok {
		return errorTask(id, fmt.Errorf("experiments: scenario %q not registered", scenarioName))
	}
	points := make([]campaign.Point, len(schedules))
	for i, s := range schedules {
		points[i] = scenarioPoint(id+"/"+s.Key, d, steps, s.HealEvery, seed)
	}
	return campaign.Task{
		ID:     id,
		Points: points,
		Assemble: func(results []any) (any, error) {
			res := &StructureResult{ExpID: id, ExpTitle: d.Title, Kind: kind}
			for i, s := range schedules {
				res.Schedules = append(res.Schedules, StructureSchedule{
					Label:     s.Label,
					HealEvery: s.HealEvery,
					Run:       *results[i].(*scenario.RunResult),
				})
			}
			return res, nil
		},
	}
}

// Decoder study shape: a 600-step (accelerated-equivalent hour) horizon,
// healed never, daily, or every 6 hours.
const (
	decoderSteps = 600
	decoderSeed  = 11
)

var decoderSchedules = []zooSchedule{
	{Key: "stress-only", Label: "no healing", HealEvery: 0},
	{Key: "heal-24", Label: "heal every 24h", HealEvery: 24},
	{Key: "heal-6", Label: "heal every 6h", HealEvery: 6},
}

// PlanZooDecoder declares the address-decoder study: asymmetric BTI from
// skewed row-select statistics, critical-path delay readout.
func PlanZooDecoder() campaign.Task {
	return planStructure("decoder", "decoder", "delay", decoderSteps, decoderSeed, decoderSchedules)
}

// DNN weight-memory study shape: 480 steps of back-to-back inference,
// healed never, every two days, or every 12 hours.
const (
	dnnMemSteps = 480
	dnnMemSeed  = 7
)

var dnnMemSchedules = []zooSchedule{
	{Key: "stress-only", Label: "no healing", HealEvery: 0},
	{Key: "heal-48", Label: "heal every 48h", HealEvery: 48},
	{Key: "heal-12", Label: "heal every 12h", HealEvery: 12},
}

// PlanZooDNNMem declares the DNN weight-memory study: trace-driven per-bank
// duty cycles, bit-flip margin readout.
func PlanZooDNNMem() campaign.Task {
	return planStructure("dnnmem", "dnnmem", "margin", dnnMemSteps, dnnMemSeed, dnnMemSchedules)
}
