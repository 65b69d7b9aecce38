package experiments

import (
	"context"
	"fmt"

	"deepheal/internal/campaign"
	"deepheal/internal/em"
	"deepheal/internal/units"
)

// Fig6Result reproduces Fig. 6: recovery scheduled in the early period of
// void growth achieves full recovery, and continuing the reverse current
// past that point starts EM in the opposite direction.
type Fig6Result struct {
	Trace []em.Sample // stress, then sustained reverse current

	FreshOhm       float64
	RiseOhm        float64 // rise at the moment recovery starts
	ResidualOhm    float64 // residual right after full recovery
	FullRecovery   bool
	ReverseEMOnset float64 // minutes (from experiment start) when reverse-EM void nucleates; 0 if none
	ReverseEMOhm   float64 // resistance rise caused by reverse EM at the end
}

var _ Result = (*Fig6Result)(nil)

// ID implements Result.
func (*Fig6Result) ID() string { return "fig6" }

// Title implements Result.
func (*Fig6Result) Title() string {
	return "Fig. 6 — full EM recovery early in void growth, then reverse-current-induced EM"
}

// Format implements Result.
func (r *Fig6Result) Format() string {
	var xs, ys []float64
	t := &table{header: []string{"t (min)", "R (Ω)"}}
	for _, s := range r.Trace {
		xs, ys = append(xs, s.TimeMin), append(ys, s.ResistanceOhm)
		t.add(fmt.Sprintf("%.0f", s.TimeMin), fmt.Sprintf("%.2f", s.ResistanceOhm))
	}
	out := asciiPlot(72, 14, "t (min)", "R (Ω)",
		plotSeries{name: "stress, then sustained reverse current", glyph: '*', xs: xs, ys: ys}) + "\n"
	out += t.String()
	out += fmt.Sprintf("\nrise before recovery %.2f Ω; residual after recovery %.3f Ω (full recovery: %v)\n",
		r.RiseOhm, r.ResidualOhm, r.FullRecovery)
	if r.ReverseEMOnset > 0 {
		out += fmt.Sprintf("sustained reverse current nucleated a void at the opposite end at ≈%.0f min; reverse-EM rise %.2f Ω\n",
			r.ReverseEMOnset, r.ReverseEMOhm)
	} else {
		out += "no reverse-EM observed within the horizon\n"
	}
	return out
}

// PlanFig6 declares the early-recovery EM experiment as one point: the
// reverse phase's duration depends on the stress outcome, so the protocol
// cannot be split further.
func PlanFig6() campaign.Task {
	p := em.DefaultParams()
	hash := campaign.Hash("em/fig6-protocol", p, emJ, emTemp, 60, 30, 1.5)
	return campaign.Task{
		ID:     "fig6",
		Points: []campaign.Point{campaign.NewPoint("fig6/protocol", hash, runFig6Protocol)},
		Assemble: func(results []any) (any, error) {
			return results[0].(*Fig6Result), nil
		},
	}
}

func runFig6Protocol(ctx context.Context) (*Fig6Result, error) {
	p := em.DefaultParams()
	res := &Fig6Result{FreshOhm: p.Resistance0(emTemp)}
	w, err := em.NewWire(p)
	if err != nil {
		return nil, err
	}
	tn, err := w.TimeToNucleation(emJ, emTemp, units.Hours(24))
	if err != nil {
		return nil, fmt.Errorf("nucleation: %w", err)
	}
	// Stress slightly into the void-growth phase, then reverse for a long
	// time (sampled coarsely) to capture both the full recovery and the
	// later reverse-EM onset.
	const sampleMin = 60
	stressDur := tn + units.Minutes(60)
	res.Trace, err = w.Run(emJ, emTemp, stressDur, units.Minutes(sampleMin))
	if err != nil {
		return nil, err
	}
	res.RiseOhm = w.Resistance(emTemp) - res.FreshOhm

	// Sustain the reverse current in hourly chunks until the opposite-end
	// void has raised the resistance visibly (or the horizon runs out),
	// stopping before the reverse-EM damage breaks the wire.
	minResidual := res.RiseOhm
	for w.Time()-stressDur < units.Hours(30) && !w.Broken() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		offset := units.SecondsToMinutes(w.Time())
		chunk, err := w.Run(-emJ, emTemp, units.Hours(1), units.Minutes(sampleMin))
		if err != nil {
			return nil, err
		}
		for _, s := range chunk {
			s.TimeMin += offset
			res.Trace = append(res.Trace, s)
			if resid := s.ResistanceOhm - res.FreshOhm; resid < minResidual {
				minResidual = resid
			}
		}
		if w.Nucleated(em.EndAnode) && res.ReverseEMOnset == 0 {
			res.ReverseEMOnset = units.SecondsToMinutes(w.Time())
		}
		if rise := w.Resistance(emTemp) - res.FreshOhm; res.ReverseEMOnset > 0 && rise > 1.5 {
			break
		}
	}
	res.ResidualOhm = minResidual
	res.FullRecovery = minResidual < 1e-6
	if w.Nucleated(em.EndAnode) && !w.Broken() {
		res.ReverseEMOhm = w.Resistance(emTemp) - res.FreshOhm
	}
	return res, nil
}
