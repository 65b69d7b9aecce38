package experiments

import (
	"fmt"

	"deepheal/internal/campaign"
	"deepheal/internal/core"
	"deepheal/internal/lifetime"
	"deepheal/internal/rngx"
	"deepheal/internal/workload"
)

// Fig12Policy is one scheduling policy's lifetime outcome.
type Fig12Policy struct {
	Report *core.Report
}

// Fig12Result reproduces Fig. 12(b): periodic scheduled BTI/EM active
// recovery on a many-core system keeps performance near fresh, shrinking
// the required wearout design margin versus the worst case.
type Fig12Result struct {
	Policies []Fig12Policy
	// MarginReduction is worst-case guardband / deep-healing guardband.
	MarginReduction float64
	// SampleEvery decimates the printed series.
	SampleEvery int
}

var _ Result = (*Fig12Result)(nil)

// ID implements Result.
func (*Fig12Result) ID() string { return "fig12" }

// Title implements Result.
func (*Fig12Result) Title() string {
	return "Fig. 12(b) — system-level scheduled recovery vs. worst-case margins (16-core, accelerated-equivalent lifetime)"
}

// Format implements Result.
func (r *Fig12Result) Format() string {
	sum := &table{header: []string{"Policy", "Guardband", "Final ΔVth (mV)", "EM nucleated", "EM failed @step", "Availability", "Recovery overhead"}}
	for _, p := range r.Policies {
		fail := "-"
		if p.Report.EMFailedStep >= 0 {
			fail = fmt.Sprintf("%d", p.Report.EMFailedStep)
		}
		sum.add(p.Report.Policy,
			fmt.Sprintf("%.1f%%", p.Report.GuardbandFrac*100),
			fmt.Sprintf("%.1f", p.Report.FinalShiftV*1000),
			fmt.Sprintf("%v", p.Report.EMNucleated),
			fail,
			fmt.Sprintf("%.3f", p.Report.Availability),
			fmt.Sprintf("%.1f%%", p.Report.RecoveryOverhead*100))
	}
	out := sum.String()

	glyphs := []byte{'w', 'p', 'd'}
	var curves []plotSeries
	for i, p := range r.Policies {
		var xs, ys []float64
		for _, st := range p.Report.Series {
			if finite(st.WorstDelayNorm) {
				xs, ys = append(xs, float64(st.Step)), append(ys, st.WorstDelayNorm)
			}
		}
		curves = append(curves, plotSeries{name: p.Report.Policy, glyph: glyphs[i%len(glyphs)], xs: xs, ys: ys})
	}
	out += "\n" + asciiPlot(72, 14, "step", "worst path delay (fresh = 1)", curves...)

	series := &table{header: []string{"step"}}
	for _, p := range r.Policies {
		series.header = append(series.header, p.Report.Policy+" delay", p.Report.Policy+" EM prog")
	}
	n := len(r.Policies[0].Report.Series)
	for i := 0; i < n; i += r.SampleEvery {
		row := []string{fmt.Sprintf("%d", i)}
		for _, p := range r.Policies {
			st := p.Report.Series[i]
			row = append(row, fmt.Sprintf("%.3f", st.WorstDelayNorm), fmt.Sprintf("%.2f", st.EMMaxProgress))
		}
		series.add(row...)
	}
	out += "\n" + series.String()
	out += fmt.Sprintf("\nworst-case margin / deep-healing margin = %.1fx reduction\n", r.MarginReduction)
	return out
}

// Fig12Workloads builds the mixed many-core workload set used by the
// system experiment: sustained services, staggered periodic tasks, bursty
// interactive load and duty-cycled IoT-style blocks.
func Fig12Workloads(n int, seed int64) ([]workload.Profile, error) {
	rng := rngx.New(seed)
	out := make([]workload.Profile, n)
	for i := range out {
		switch i % 4 {
		case 0:
			out[i] = workload.Constant{Util: 0.85}
		case 1:
			out[i] = workload.Periodic{BusySteps: 6, IdleSteps: 3, BusyUtil: 0.9, Offset: i}
		case 2:
			b, err := workload.NewBursty(rng.Split(int64(i)), 4096, 5, 4, 0.5)
			if err != nil {
				return nil, err
			}
			out[i] = b
		default:
			out[i] = workload.IoTDutyCycle{WakeEvery: 8, Active: 2, Util: 0.9}
		}
	}
	return out, nil
}

// PlanFig12 declares one simulation point per scheduling policy over the
// default system: independent simulations the engine can run concurrently.
func PlanFig12() campaign.Task {
	cfg := core.DefaultConfig()
	wl, err := Fig12Workloads(cfg.NumCores(), cfg.Seed)
	if err != nil {
		return errorTask("fig12", fmt.Errorf("experiments: fig12: %w", err))
	}
	cfg.Workloads = wl

	return campaign.Task{
		ID: "fig12",
		Points: []campaign.Point{
			simPoint("fig12/no-recovery", cfg, func() core.Policy { return &core.NoRecovery{} }),
			simPoint("fig12/passive", cfg, func() core.Policy { return &core.PassiveRecovery{} }),
			simPoint("fig12/deep-healing", cfg, func() core.Policy { return core.DefaultDeepHealing() }),
		},
		Assemble: func(results []any) (any, error) {
			res := &Fig12Result{SampleEvery: 100}
			for _, r := range results {
				res.Policies = append(res.Policies, Fig12Policy{Report: r.(*core.Report)})
			}
			worst := lifetime.Margin{FreshDelay: 1, WornDelay: 1 + res.Policies[0].Report.GuardbandFrac}
			deep := lifetime.Margin{FreshDelay: 1, WornDelay: 1 + res.Policies[2].Report.GuardbandFrac}
			res.MarginReduction = lifetime.Reduction(worst, deep)
			return res, nil
		},
	}
}
