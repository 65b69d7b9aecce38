package experiments

import (
	"context"
	"fmt"

	"deepheal/internal/bti"
	"deepheal/internal/campaign"
	"deepheal/internal/core"
	"deepheal/internal/em"
	"deepheal/internal/units"
)

// EMFreqPoint is one frequency of the AC-healing ablation.
type EMFreqPoint struct {
	PeriodMin float64
	TTFMin    float64 // +Inf-like horizon value when immortal
	Immortal  bool
}

// EMFreqResult is the A1 ablation: EM lifetime under bipolar (AC) current
// rises with frequency — the healing effect first reported by Tao et al.
// that the paper builds on (§II.B).
type EMFreqResult struct {
	DCTTFMin float64
	Points   []EMFreqPoint
}

var _ Result = (*EMFreqResult)(nil)

// ID implements Result.
func (*EMFreqResult) ID() string { return "ablation-em-freq" }

// Title implements Result.
func (*EMFreqResult) Title() string {
	return "Ablation A1 — EM lifetime under bipolar current vs. switching period"
}

// Format implements Result.
func (r *EMFreqResult) Format() string {
	t := &table{header: []string{"half-period (min)", "TTF (min)", "vs DC"}}
	t.add("DC (no reversal)", fmt.Sprintf("%.0f", r.DCTTFMin), "1.0x")
	for _, p := range r.Points {
		ttf := fmt.Sprintf("%.0f", p.TTFMin)
		ratio := fmt.Sprintf("%.1fx", p.TTFMin/r.DCTTFMin)
		if p.Immortal {
			ttf = "> " + ttf
			ratio = "immortal within horizon"
		}
		t.add(fmt.Sprintf("%.0f", p.PeriodMin), ttf, ratio)
	}
	return t.String() + "\nshorter reversal periods (higher frequency) extend lifetime by orders of magnitude\n"
}

// emBipolarPoint stresses a wire with bipolar current at one half-period
// until failure or the horizon.
func emBipolarPoint(key string, halfMin, horizonHours float64) campaign.Point {
	p := em.DefaultParams()
	hash := campaign.Hash("em/bipolar-ttf", p, emJ, emTemp, halfMin, horizonHours)
	return campaign.NewPoint(key, hash, func(ctx context.Context) (*EMFreqPoint, error) {
		w, err := em.NewWire(p)
		if err != nil {
			return nil, err
		}
		horizon := units.Hours(horizonHours)
		elapsed, sign := 0.0, 1.0
		for elapsed < horizon && !w.Broken() {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			w.Run(units.CurrentDensity(sign)*emJ, emTemp, units.Minutes(halfMin), 0)
			elapsed = w.Time()
			sign = -sign
		}
		return &EMFreqPoint{
			PeriodMin: halfMin,
			TTFMin:    units.SecondsToMinutes(elapsed),
			Immortal:  !w.Broken(),
		}, nil
	})
}

// PlanAblationEMFrequency declares the bipolar switching-period sweep: the
// shared DC failure baseline plus one point per half-period.
func PlanAblationEMFrequency() campaign.Task {
	halfPeriods := []float64{960, 720, 480, 240, 120, 60}
	t := campaign.Task{ID: "ablation-em-freq"}
	t.Points = append(t.Points, emDCTTFPoint("ablation-em-freq/dc", 48))
	for _, halfMin := range halfPeriods {
		t.Points = append(t.Points, emBipolarPoint(
			fmt.Sprintf("ablation-em-freq/half-%.0fmin", halfMin), halfMin, 96))
	}
	t.Assemble = func(results []any) (any, error) {
		res := &EMFreqResult{DCTTFMin: *results[0].(*float64)}
		for i := range halfPeriods {
			res.Points = append(res.Points, *results[i+1].(*EMFreqPoint))
		}
		return res, nil
	}
	return t
}

// BTICondPoint is one (voltage, temperature) recovery condition.
type BTICondPoint struct {
	Cond     bti.Condition
	Fraction float64 // recovery fraction after 6 h
}

// BTICondResult is the A2 ablation: decomposing the Table I joint effect
// over a grid of recovery voltages and temperatures.
type BTICondResult struct {
	Volts  []float64
	TempsC []float64
	Grid   [][]float64 // [temp][volt] recovery fraction
}

var _ Result = (*BTICondResult)(nil)

// ID implements Result.
func (*BTICondResult) ID() string { return "ablation-bti-cond" }

// Title implements Result.
func (*BTICondResult) Title() string {
	return "Ablation A2 — BTI recovery fraction across voltage × temperature (6 h after 24 h stress)"
}

// Format implements Result.
func (r *BTICondResult) Format() string {
	t := &table{header: []string{"T \\ V"}}
	for _, v := range r.Volts {
		t.header = append(t.header, fmt.Sprintf("%+.1f V", v))
	}
	for i, tc := range r.TempsC {
		row := []string{fmt.Sprintf("%.0f°C", tc)}
		for j := range r.Volts {
			row = append(row, units.Percent(r.Grid[i][j]))
		}
		t.add(row...)
	}
	return t.String() + "\ntemperature and reverse bias interact super-multiplicatively — the paper's \"deep healing\" knob\n"
}

// PlanAblationBTIConditions declares the recovery condition grid: one
// recovery-fraction point per (voltage, temperature) cell. The cells that
// coincide with the Table I conditions share those points' hashes, so a
// full campaign computes them once.
func PlanAblationBTIConditions() campaign.Task {
	volts := []float64{0, -0.1, -0.2, -0.3, -0.4}
	tempsC := []float64{20, 50, 80, 110, 140}
	t := campaign.Task{ID: "ablation-bti-cond"}
	for _, tc := range tempsC {
		for _, v := range volts {
			cond := bti.Condition{GateVoltage: v, Temp: units.Celsius(tc)}
			t.Points = append(t.Points, btiRecoveryFractionPoint(
				fmt.Sprintf("ablation-bti-cond/%+.1fV-%.0fC", v, tc), cond, 24, 6))
		}
	}
	t.Assemble = func(results []any) (any, error) {
		res := &BTICondResult{Volts: volts, TempsC: tempsC}
		for i := range tempsC {
			row := make([]float64, len(volts))
			for j := range volts {
				row[j] = *results[i*len(volts)+j].(*float64)
			}
			res.Grid = append(res.Grid, row)
		}
		return res, nil
	}
	return t
}

// SchedulePoint is one recovery-interval setting of the A3 ablation.
type SchedulePoint struct {
	RecoverySteps int
	MaxConcurrent int
	Guardband     float64
	Overhead      float64
	Availability  float64
}

// ScheduleResult is the A3 ablation: how the deep-healing scheduling
// granularity trades guardband against recovery overhead.
type ScheduleResult struct {
	Baseline float64 // no-recovery guardband
	Points   []SchedulePoint
}

var _ Result = (*ScheduleResult)(nil)

// ID implements Result.
func (*ScheduleResult) ID() string { return "ablation-schedule" }

// Title implements Result.
func (*ScheduleResult) Title() string {
	return "Ablation A3 — deep-healing scheduling granularity vs. guardband and overhead"
}

// Format implements Result.
func (r *ScheduleResult) Format() string {
	t := &table{header: []string{"recover steps", "max concurrent", "guardband", "overhead", "availability"}}
	t.add("(no recovery)", "-", fmt.Sprintf("%.1f%%", r.Baseline*100), "0%", "1.000")
	for _, p := range r.Points {
		t.add(fmt.Sprintf("%d", p.RecoverySteps),
			fmt.Sprintf("%d", p.MaxConcurrent),
			fmt.Sprintf("%.1f%%", p.Guardband*100),
			fmt.Sprintf("%.1f%%", p.Overhead*100),
			fmt.Sprintf("%.3f", p.Availability))
	}
	return t.String()
}

// PlanAblationSchedule declares the scheduling-granularity sweep: the
// no-recovery baseline plus one simulation point per (interval,
// concurrency) setting, each owning its own deterministic state.
func PlanAblationSchedule() campaign.Task {
	cfg := core.DefaultConfig()
	cfg.Steps = 900
	wl, err := Fig12Workloads(cfg.NumCores(), cfg.Seed)
	if err != nil {
		return errorTask("ablation-schedule", fmt.Errorf("experiments: ablation-schedule: %w", err))
	}
	cfg.Workloads = wl

	settings := []struct{ steps, conc int }{
		{1, 2}, {1, 4}, {2, 2}, {2, 4}, {4, 4}, {2, 6},
	}
	t := campaign.Task{ID: "ablation-schedule"}
	t.Points = append(t.Points, simPoint("ablation-schedule/baseline", cfg,
		func() core.Policy { return &core.NoRecovery{} }))
	for _, setting := range settings {
		setting := setting
		t.Points = append(t.Points, simPoint(
			fmt.Sprintf("ablation-schedule/r%d-c%d", setting.steps, setting.conc), cfg,
			func() core.Policy {
				pol := core.DefaultDeepHealing()
				pol.RecoverySteps = setting.steps
				pol.MaxConcurrent = setting.conc
				return pol
			}))
	}
	t.Assemble = func(results []any) (any, error) {
		res := &ScheduleResult{Baseline: results[0].(*core.Report).GuardbandFrac}
		for i, setting := range settings {
			rep := results[i+1].(*core.Report)
			res.Points = append(res.Points, SchedulePoint{
				RecoverySteps: setting.steps,
				MaxConcurrent: setting.conc,
				Guardband:     rep.GuardbandFrac,
				Overhead:      rep.RecoveryOverhead,
				Availability:  rep.Availability,
			})
		}
		return res, nil
	}
	return t
}
