package experiments

import (
	"context"
	"fmt"

	"deepheal/internal/assist"
	"deepheal/internal/campaign"
)

// SizingStudyResult is the A6 ablation: the area the assist circuitry must
// pay to hide the Fig. 10 droop — the paper's "each load will have its own
// optimal design point" argument made quantitative.
type SizingStudyResult struct {
	DelayBudget float64
	Rows        []assist.UpsizeResult
}

var _ Result = (*SizingStudyResult)(nil)

// ID implements Result.
func (*SizingStudyResult) ID() string { return "ablation-sizing" }

// Title implements Result.
func (*SizingStudyResult) Title() string {
	return "Ablation A6 — header/footer upsizing needed to hide the droop vs. load size"
}

// Format implements Result.
func (r *SizingStudyResult) Format() string {
	t := &table{header: []string{"Load Size", "Required width", "Area", "Achieved delay"}}
	for _, row := range r.Rows {
		t.add(fmt.Sprintf("%d", row.NumLoads),
			fmt.Sprintf("%.2fx", row.WidthMultiple),
			fmt.Sprintf("%.2fx", row.AreaMultiple),
			fmt.Sprintf("%.3f", row.DelayNorm))
	}
	out := t.String()
	out += fmt.Sprintf("\nkeeping the load delay within %.0f%% of droop-free costs superlinear assist area;\n"+
		"beyond a few loads it is cheaper to split the cluster — the per-load optimal design point\n",
		(r.DelayBudget-1)*100)
	return out
}

// PlanSizingStudy declares the assist upsizing sweep at a 15 % delay
// budget.
func PlanSizingStudy() campaign.Task {
	cfg := assist.DefaultConfig()
	const maxLoads, budget = 5, 1.15
	hash := campaign.Hash("assist/upsize-sweep", cfg, maxLoads, budget)
	return campaign.Task{
		ID: "ablation-sizing",
		Points: []campaign.Point{campaign.NewPoint("ablation-sizing/sweep", hash,
			func(ctx context.Context) (*SizingStudyResult, error) {
				rows, err := assist.UpsizeSweep(cfg, maxLoads, budget)
				if err != nil {
					return nil, err
				}
				return &SizingStudyResult{DelayBudget: budget, Rows: rows}, nil
			})},
		Assemble: func(results []any) (any, error) {
			return results[0].(*SizingStudyResult), nil
		},
	}
}
