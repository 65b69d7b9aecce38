package experiments

import (
	"context"
	"fmt"

	"deepheal/internal/bti"
	"deepheal/internal/campaign"
	"deepheal/internal/units"
)

// Fig4Pattern is one stress:recovery duty pattern of Fig. 4.
type Fig4Pattern struct {
	StressHours, RecoveryHours float64
	Residuals                  []bti.CycleResidual
}

// Fig4Result reproduces Fig. 4: how the permanent BTI component accumulates
// over repeated stress/recovery cycles under different duty patterns, with
// the balanced 1 h : 1 h schedule staying practically at zero.
type Fig4Result struct {
	Cycles   int
	Patterns []Fig4Pattern
	// OneHourShiftV is the shift after a single 1 h stress, the reference
	// against which "practically zero" is judged.
	OneHourShiftV float64
}

var _ Result = (*Fig4Result)(nil)

// ID implements Result.
func (*Fig4Result) ID() string { return "fig4" }

// Title implements Result.
func (*Fig4Result) Title() string {
	return "Fig. 4 — permanent BTI accumulation under cyclic stress vs. scheduled deep recovery"
}

// Format implements Result.
func (r *Fig4Result) Format() string {
	glyphs := []byte{'b', '2', '4'}
	var curves []plotSeries
	for i, p := range r.Patterns {
		var xs, ys []float64
		for _, cr := range p.Residuals {
			xs, ys = append(xs, cr.EndHours), append(ys, cr.ResidualV*1000)
		}
		curves = append(curves, plotSeries{
			name:  fmt.Sprintf("%gh:%gh", p.StressHours, p.RecoveryHours),
			glyph: glyphs[i%len(glyphs)], xs: xs, ys: ys,
		})
	}
	plot := asciiPlot(72, 12, "schedule time (h)", "residual after recovery (mV)", curves...) + "\n"

	t := &table{header: []string{"Cycle", "End (h)"}}
	for _, p := range r.Patterns {
		t.header = append(t.header, fmt.Sprintf("%gh:%gh resid (mV)", p.StressHours, p.RecoveryHours))
	}
	for c := 0; c < r.Cycles; c++ {
		row := []string{fmt.Sprintf("C%d", c+1), fmt.Sprintf("%.0f", r.Patterns[0].Residuals[c].EndHours)}
		for _, p := range r.Patterns {
			row = append(row, fmt.Sprintf("%.2f", p.Residuals[c].ResidualV*1000))
		}
		t.add(row...)
	}
	out := plot + t.String()
	balanced := r.Patterns[0].Residuals[r.Cycles-1].ResidualV
	out += fmt.Sprintf("\n1h:1h residual after %d cycles: %.2f mV (%.1f%% of a single 1 h stress shift %.1f mV) — practically zero\n",
		r.Cycles, balanced*1000, balanced/r.OneHourShiftV*100, r.OneHourShiftV*1000)
	return out
}

// fig4PatternPoint runs one duty pattern's cyclic stress/deep-recovery
// schedule on a fresh device.
func fig4PatternPoint(key string, stressH, recoverH float64, cycles int) campaign.Point {
	params := bti.DefaultParams()
	hash := campaign.Hash("bti/duty-residuals", params, bti.StressAccel, bti.RecoverDeep,
		stressH, recoverH, cycles)
	return campaign.NewPoint(key, hash, func(ctx context.Context) (*Fig4Pattern, error) {
		dev, err := bti.NewDevice(params)
		if err != nil {
			return nil, err
		}
		residuals := dev.RunDutyCycles(bti.StressAccel, bti.RecoverDeep,
			units.Hours(stressH), units.Hours(recoverH), cycles)
		return &Fig4Pattern{StressHours: stressH, RecoveryHours: recoverH, Residuals: residuals}, nil
	})
}

// PlanFig4 declares the cyclic stress/deep-recovery task for the 1:1, 2:1
// and 4:1 duty patterns, plus the single 1 h stress reference shift.
func PlanFig4() campaign.Task {
	const cycles = 12
	duties := [][2]float64{{1, 1}, {2, 1}, {4, 1}}
	t := campaign.Task{ID: "fig4"}
	for _, duty := range duties {
		t.Points = append(t.Points, fig4PatternPoint(
			fmt.Sprintf("fig4/duty-%gh-%gh", duty[0], duty[1]), duty[0], duty[1], cycles))
	}
	t.Points = append(t.Points, btiShiftPoint("fig4/one-hour-ref", bti.StressAccel, 1))
	t.Assemble = func(results []any) (any, error) {
		res := &Fig4Result{Cycles: cycles}
		for i := range duties {
			res.Patterns = append(res.Patterns, *results[i].(*Fig4Pattern))
		}
		res.OneHourShiftV = *results[len(duties)].(*float64)
		return res, nil
	}
	return t
}
