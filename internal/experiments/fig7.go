package experiments

import (
	"context"
	"fmt"

	"deepheal/internal/campaign"
	"deepheal/internal/em"
	"deepheal/internal/units"
)

// Fig7Result reproduces Fig. 7: periodic short reverse-current intervals
// scheduled during the nucleation phase delay void nucleation (≈3×) and
// extend the overall time to failure.
type Fig7Result struct {
	Trace []em.Sample

	BaselineNucleationMin  float64
	BaselineTTFMin         float64
	ScheduledNucleationMin float64
	ScheduledTTFMin        float64
	StressIntervalMin      float64
	ReverseIntervalMin     float64
}

var _ Result = (*Fig7Result)(nil)

// ID implements Result.
func (*Fig7Result) ID() string { return "fig7" }

// Title implements Result.
func (*Fig7Result) Title() string {
	return "Fig. 7 — scheduled periodic recovery during void nucleation delays failure"
}

// Format implements Result.
func (r *Fig7Result) Format() string {
	var xs, ys []float64
	t := &table{header: []string{"t (min)", "R (Ω)"}}
	for _, s := range r.Trace {
		t.add(fmt.Sprintf("%.0f", s.TimeMin), fmt.Sprintf("%.2f", s.ResistanceOhm))
		if finite(s.ResistanceOhm) {
			xs, ys = append(xs, s.TimeMin), append(ys, s.ResistanceOhm)
		}
	}
	out := asciiPlot(72, 14, "t (min)", "R (Ω)",
		plotSeries{name: "periodic recovery, then continuous stress", glyph: '*', xs: xs, ys: ys}) + "\n"
	out += t.String()
	out += fmt.Sprintf("\nschedule: %.0f min stress / %.0f min reverse during nucleation phase\n",
		r.StressIntervalMin, r.ReverseIntervalMin)
	out += fmt.Sprintf("void nucleation: %.0f min → %.0f min (%.1fx delay; paper ≈3x)\n",
		r.BaselineNucleationMin, r.ScheduledNucleationMin, r.ScheduledNucleationMin/r.BaselineNucleationMin)
	out += fmt.Sprintf("time to failure: %.0f min → %.0f min (%.2fx extension)\n",
		r.BaselineTTFMin, r.ScheduledTTFMin, r.ScheduledTTFMin/r.BaselineTTFMin)
	return out
}

// fig7Scheduled is the periodic-recovery branch of Fig. 7: the trace, the
// delayed nucleation time and the extended failure time.
type fig7Scheduled struct {
	Trace         []em.Sample
	NucleationMin float64
	TTFMin        float64
}

// fig7ScheduledPoint runs periodic reverse intervals while the wire is
// still void-free, then continuous stress until failure.
func fig7ScheduledPoint(key string, stressIntMin, reverseIntMin float64) campaign.Point {
	p := em.DefaultParams()
	hash := campaign.Hash("em/fig7-scheduled", p, emJ, emTemp, stressIntMin, reverseIntMin)
	return campaign.NewPoint(key, hash, func(ctx context.Context) (*fig7Scheduled, error) {
		w, err := em.NewWire(p)
		if err != nil {
			return nil, err
		}
		sched := &fig7Scheduled{}
		const sampleMin = 20
		offset := 0.0
		appendTrace := func(trace []em.Sample) {
			for _, s := range trace {
				s.TimeMin += offset
				sched.Trace = append(sched.Trace, s)
			}
		}
		for !w.Nucleated(em.EndCathode) && !w.Nucleated(em.EndAnode) && w.Time() < units.Hours(72) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			tr, err := w.Run(emJ, emTemp, units.Minutes(stressIntMin), units.Minutes(sampleMin))
			if err != nil {
				return nil, err
			}
			appendTrace(tr)
			offset = units.SecondsToMinutes(w.Time())
			if w.Nucleated(em.EndCathode) || w.Nucleated(em.EndAnode) {
				break
			}
			tr, err = w.Run(-emJ, emTemp, units.Minutes(reverseIntMin), units.Minutes(sampleMin))
			if err != nil {
				return nil, err
			}
			appendTrace(tr)
			offset = units.SecondsToMinutes(w.Time())
		}
		sched.NucleationMin = units.SecondsToMinutes(w.Time())

		// After nucleation the paper lets the (now inevitable) growth run:
		// continuous stress until the metal breaks.
		grow, err := w.Run(emJ, emTemp, units.Hours(48), units.Minutes(sampleMin))
		if err != nil {
			return nil, err
		}
		appendTrace(grow)
		if !w.Broken() {
			return nil, fmt.Errorf("wire did not fail within the horizon")
		}
		sched.TTFMin = units.SecondsToMinutes(w.Time())
		return sched, nil
	})
}

// PlanFig7 declares the proactive periodic-recovery task. The DC baselines
// are the shared nucleation/TTF points, so a campaign that also runs fig5
// or ablation-em-freq computes each baseline once.
func PlanFig7() campaign.Task {
	const stressIntMin, reverseIntMin = 120, 40
	return campaign.Task{
		ID: "fig7",
		Points: []campaign.Point{
			emNucleationPoint("fig7/baseline-nucleation", 24),
			emDCTTFPoint("fig7/baseline-ttf", 48),
			fig7ScheduledPoint("fig7/scheduled", stressIntMin, reverseIntMin),
		},
		Assemble: func(results []any) (any, error) {
			sched := results[2].(*fig7Scheduled)
			return &Fig7Result{
				Trace:                  sched.Trace,
				BaselineNucleationMin:  *results[0].(*float64),
				BaselineTTFMin:         *results[1].(*float64),
				ScheduledNucleationMin: sched.NucleationMin,
				ScheduledTTFMin:        sched.TTFMin,
				StressIntervalMin:      stressIntMin,
				ReverseIntervalMin:     reverseIntMin,
			}, nil
		},
	}
}
