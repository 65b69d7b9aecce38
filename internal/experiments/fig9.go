package experiments

import (
	"context"
	"fmt"

	"deepheal/internal/assist"
	"deepheal/internal/campaign"
)

// Fig9Result reproduces Fig. 9: the functional simulation of the assist
// circuitry — grid-current reversal under EM Active Recovery at unchanged
// magnitude (a), and the load VDD/VSS swap with pass-device droop under BTI
// Active Recovery (b).
type Fig9Result struct {
	Normal assist.OperatingPoint
	EM     assist.OperatingPoint
	BTI    assist.OperatingPoint

	// SwitchTrace is the Normal → BTI recovery transient of the load rails.
	SwitchTrace []assist.TransPoint

	// Paper anchors.
	PaperLoadVSS, PaperLoadVDD float64
}

var _ Result = (*Fig9Result)(nil)

// ID implements Result.
func (*Fig9Result) ID() string { return "fig9" }

// Title implements Result.
func (*Fig9Result) Title() string {
	return "Fig. 9 — assist circuitry functional simulation (28 nm FD-SOI-class)"
}

// Format implements Result.
func (r *Fig9Result) Format() string {
	t := &table{header: []string{"Mode", "load VDD (V)", "load VSS (V)", "Vload (V)", "VDD-grid I (µA)"}}
	for _, op := range []assist.OperatingPoint{r.Normal, r.EM, r.BTI} {
		t.add(op.Mode.String(),
			fmt.Sprintf("%.3f", op.LoadVDD),
			fmt.Sprintf("%.3f", op.LoadVSS),
			fmt.Sprintf("%+.3f", op.LoadVoltage()),
			fmt.Sprintf("%+.1f", op.GridCurrent*1e6))
	}
	out := t.String()
	out += fmt.Sprintf("\n(a) EM recovery reverses the grid current: %+.1f µA → %+.1f µA (same magnitude)\n",
		r.Normal.GridCurrent*1e6, r.EM.GridCurrent*1e6)
	out += fmt.Sprintf("(b) BTI recovery swaps the load rails: VSS %.3f V (paper ≈%.3f), VDD %.3f V (paper ≈%.3f); ΔV ≈ %.2f V\n",
		r.BTI.LoadVSS, r.PaperLoadVSS, r.BTI.LoadVDD, r.PaperLoadVDD, 1-r.BTI.LoadVSS+r.BTI.LoadVDD)
	return out
}

// PlanFig9 declares the assist circuitry simulation as one point: the mode
// sequence mutates one circuit instance, so it cannot be split.
func PlanFig9() campaign.Task {
	hash := campaign.Hash("assist/fig9", assist.DefaultConfig(), 10e-9)
	return campaign.Task{
		ID:     "fig9",
		Points: []campaign.Point{campaign.NewPoint("fig9/modes", hash, runFig9Modes)},
		Assemble: func(results []any) (any, error) {
			return results[0].(*Fig9Result), nil
		},
	}
}

func runFig9Modes(ctx context.Context) (*Fig9Result, error) {
	a, err := assist.New(assist.DefaultConfig())
	if err != nil {
		return nil, err
	}
	res := &Fig9Result{PaperLoadVSS: 0.816, PaperLoadVDD: 0.223}
	for _, m := range []assist.Mode{assist.ModeNormal, assist.ModeEMRecovery, assist.ModeBTIRecovery} {
		if err := a.SetMode(m); err != nil {
			return nil, err
		}
		op, err := a.Operating()
		if err != nil {
			return nil, fmt.Errorf("experiments: fig9: %v: %w", m, err)
		}
		switch m {
		case assist.ModeNormal:
			res.Normal = op
		case assist.ModeEMRecovery:
			res.EM = op
		case assist.ModeBTIRecovery:
			res.BTI = op
		}
	}
	trace, err := a.SwitchTransient(assist.ModeNormal, assist.ModeBTIRecovery, 10e-9)
	if err != nil {
		return nil, fmt.Errorf("experiments: fig9: transient: %w", err)
	}
	// Decimate the trace for presentation.
	for i := 0; i < len(trace); i += 10 {
		res.SwitchTrace = append(res.SwitchTrace, trace[i])
	}
	return res, nil
}
