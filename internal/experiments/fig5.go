package experiments

import (
	"context"
	"fmt"

	"deepheal/internal/campaign"
	"deepheal/internal/em"
	"deepheal/internal/units"
)

// paper stress conditions shared by the EM experiments.
var (
	emJ    = units.MAPerCm2(7.96)
	emTemp = units.Celsius(230)
)

// Fig5Result reproduces Fig. 5: EM degradation through void nucleation and
// growth, then active+accelerated recovery compared against passive
// recovery, leaving a permanent component because the recovery came late.
type Fig5Result struct {
	StressTrace  []em.Sample // constant accelerated stress
	ActiveTrace  []em.Sample // accelerated+active recovery after the stress
	PassiveTrace []em.Sample // passive recovery after the stress

	FreshOhm          float64
	PeakOhm           float64
	NucleationMin     float64
	ActiveRecovered   float64 // fraction of the rise healed by active recovery
	PassiveRecovered  float64
	PermanentOhm      float64 // residual rise after active recovery
	RecoveryMinutes   float64
	StressMinutes     float64
	PaperActiveTarget float64 // paper: >75 % within 1/5 of stress time
}

var _ Result = (*Fig5Result)(nil)

// ID implements Result.
func (*Fig5Result) ID() string { return "fig5" }

// Title implements Result.
func (*Fig5Result) Title() string {
	return "Fig. 5 — EM degradation and recovery during void growth (230 °C, ±7.96 MA/cm²)"
}

// Format implements Result.
func (r *Fig5Result) Format() string {
	var sx, sy, ax, ay, px, py []float64
	for _, s := range r.StressTrace {
		sx, sy = append(sx, s.TimeMin), append(sy, s.ResistanceOhm)
	}
	for i := range r.ActiveTrace {
		ax = append(ax, r.StressMinutes+r.ActiveTrace[i].TimeMin)
		ay = append(ay, r.ActiveTrace[i].ResistanceOhm)
		px = append(px, r.StressMinutes+r.PassiveTrace[i].TimeMin)
		py = append(py, r.PassiveTrace[i].ResistanceOhm)
	}
	out := asciiPlot(72, 16, "t (min)", "R (Ω)",
		plotSeries{name: "stress", glyph: '*', xs: sx, ys: sy},
		plotSeries{name: "active recovery", glyph: 'a', xs: ax, ys: ay},
		plotSeries{name: "passive recovery", glyph: 'p', xs: px, ys: py},
	) + "\n"

	t := &table{header: []string{"t (min)", "stress R (Ω)", "active rec. R (Ω)", "passive rec. R (Ω)"}}
	for i := range r.StressTrace {
		row := []string{
			fmt.Sprintf("%.0f", r.StressTrace[i].TimeMin),
			fmt.Sprintf("%.2f", r.StressTrace[i].ResistanceOhm),
			"", "",
		}
		t.add(row...)
	}
	for i := range r.ActiveTrace {
		t.add(fmt.Sprintf("%.0f", r.StressMinutes+r.ActiveTrace[i].TimeMin), "",
			fmt.Sprintf("%.2f", r.ActiveTrace[i].ResistanceOhm),
			fmt.Sprintf("%.2f", r.PassiveTrace[i].ResistanceOhm))
	}
	out += t.String()
	out += fmt.Sprintf("\nfresh %.2f Ω, peak %.2f Ω (rise %.2f Ω), nucleation at ≈%.0f min\n",
		r.FreshOhm, r.PeakOhm, r.PeakOhm-r.FreshOhm, r.NucleationMin)
	out += fmt.Sprintf("active+accelerated recovery: %.0f%% of the rise healed in %.0f min (1/5 of the %.0f min stress); permanent component %.2f Ω\n",
		r.ActiveRecovered*100, r.RecoveryMinutes, r.StressMinutes, r.PermanentOhm)
	out += fmt.Sprintf("passive recovery: %.0f%% healed (paper: ≈0)\n", r.PassiveRecovered*100)
	return out
}

// fig5 protocol constants.
const (
	fig5StressMin  = 960
	fig5RecoverMin = 192 // 1/5 of the stress time
	fig5SampleMin  = 30
)

// fig5ProtocolPoint runs the stress phase and both recovery branches; the
// nucleation baseline is a separate (shared) point.
func fig5ProtocolPoint(key string) campaign.Point {
	p := em.DefaultParams()
	hash := campaign.Hash("em/fig5-protocol", p, emJ, emTemp,
		fig5StressMin, fig5RecoverMin, fig5SampleMin)
	return campaign.NewPoint(key, hash, func(ctx context.Context) (*Fig5Result, error) {
		res := &Fig5Result{
			FreshOhm:          p.Resistance0(emTemp),
			StressMinutes:     fig5StressMin,
			RecoveryMinutes:   fig5RecoverMin,
			PaperActiveTarget: 0.75,
		}
		w, err := em.NewWire(p)
		if err != nil {
			return nil, err
		}
		res.StressTrace, err = w.Run(emJ, emTemp, units.Minutes(fig5StressMin), units.Minutes(fig5SampleMin))
		if err != nil {
			return nil, err
		}
		res.PeakOhm = w.Resistance(emTemp)

		passive := w.Clone()
		res.ActiveTrace, err = w.Run(-emJ, emTemp, units.Minutes(fig5RecoverMin), units.Minutes(fig5SampleMin))
		if err != nil {
			return nil, err
		}
		res.PassiveTrace, err = passive.Run(0, emTemp, units.Minutes(fig5RecoverMin), units.Minutes(fig5SampleMin))
		if err != nil {
			return nil, err
		}

		rise := res.PeakOhm - res.FreshOhm
		res.ActiveRecovered = (res.PeakOhm - w.Resistance(emTemp)) / rise
		res.PassiveRecovered = (res.PeakOhm - passive.Resistance(emTemp)) / rise
		res.PermanentOhm = w.Resistance(emTemp) - res.FreshOhm
		return res, nil
	})
}

// PlanFig5 declares the late-recovery EM task: the shared DC nucleation
// baseline plus the stress/recovery protocol.
func PlanFig5() campaign.Task {
	return campaign.Task{
		ID: "fig5",
		Points: []campaign.Point{
			emNucleationPoint("fig5/nucleation", 24),
			fig5ProtocolPoint("fig5/protocol"),
		},
		Assemble: func(results []any) (any, error) {
			res := *results[1].(*Fig5Result)
			res.NucleationMin = *results[0].(*float64)
			return &res, nil
		},
	}
}
