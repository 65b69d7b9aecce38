package experiments

import (
	"context"
	"fmt"

	"deepheal/internal/assist"
	"deepheal/internal/campaign"
)

// Fig10Result reproduces Fig. 10: how the load size behind one fixed-size
// assist circuitry trades off load delay (rising, roughly linearly) against
// mode-switching time (falling, at a slower rate).
type Fig10Result struct {
	Points []assist.SizingPoint
}

var _ Result = (*Fig10Result)(nil)

// ID implements Result.
func (*Fig10Result) ID() string { return "fig10" }

// Title implements Result.
func (*Fig10Result) Title() string {
	return "Fig. 10 — load size vs. normalized delay and mode-switching time"
}

// Format implements Result.
func (r *Fig10Result) Format() string {
	t := &table{header: []string{"Load Size", "Load V (V)", "Norm. Delay", "Norm. Switching Time", "t_sw (ns)"}}
	for _, p := range r.Points {
		t.add(fmt.Sprintf("%d", p.NumLoads),
			fmt.Sprintf("%.3f", p.LoadVDD-p.LoadVSS),
			fmt.Sprintf("%.3f", p.NormalizedDelay),
			fmt.Sprintf("%.3f", p.NormalizedTSw),
			fmt.Sprintf("%.2f", p.SwitchingTimeS*1e9))
	}
	out := t.String()
	last := r.Points[len(r.Points)-1]
	out += fmt.Sprintf("\ndelay grows to %.2fx at %d loads (paper ≈1.8x); switching time falls to %.2fx, a slower rate\n",
		last.NormalizedDelay, last.NumLoads, last.NormalizedTSw)
	return out
}

// PlanFig10 declares the load-size sweep, one point per load size. The sweep
// used to be a single 1.3 s point — the longest in the whole campaign and the
// critical path of any parallel schedule. Each size's raw measurement is
// independent, so each becomes its own content-hashed point and the only
// cross-size arithmetic — dividing by the n = 1 baseline — happens in
// Assemble via assist.NormalizeSizing, which reproduces the sequential
// sweep's rows bitwise.
func PlanFig10() campaign.Task {
	cfg := assist.DefaultConfig()
	const maxLoads = 5
	points := make([]campaign.Point, 0, maxLoads)
	for n := 1; n <= maxLoads; n++ {
		n := n
		hash := campaign.Hash("assist/load-size-point", cfg, n)
		points = append(points, campaign.NewPoint(fmt.Sprintf("fig10/load-%d", n), hash,
			func(ctx context.Context) (*assist.RawSizingPoint, error) {
				r, err := assist.LoadSizePoint(cfg, n)
				if err != nil {
					return nil, err
				}
				return &r, nil
			}))
	}
	return campaign.Task{
		ID:     "fig10",
		Points: points,
		Assemble: func(results []any) (any, error) {
			raw := make([]assist.RawSizingPoint, 0, len(results))
			for _, r := range results {
				raw = append(raw, *r.(*assist.RawSizingPoint))
			}
			pts, err := assist.NormalizeSizing(raw)
			if err != nil {
				return nil, err
			}
			return &Fig10Result{Points: pts}, nil
		},
	}
}
