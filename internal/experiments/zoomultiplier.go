package experiments

import (
	"fmt"

	"deepheal/internal/campaign"
	"deepheal/internal/mathx"
	"deepheal/internal/scenario"
)

// The multiplier Monte Carlo sweep: the guardband of an arithmetic block
// covers the worst device of the worst manufactured sample, so the study
// draws many process-variation samples of the structure and ages each under
// every healing schedule. Each (sample, schedule) pair is its own campaign
// point — the sweep parallelises to the point level under campaign.Run and
// distributes point-by-point under `deepheal coordinate`, which is exactly
// the scale shape the distributed executor was built for.

const (
	multiplierSamples  = 12
	multiplierSteps    = 240
	multiplierSeedBase = 4200
)

var multiplierSchedules = []zooSchedule{
	{Key: "stress-only", Label: "no healing", HealEvery: 0},
	{Key: "heal-8", Label: "heal every 8h", HealEvery: 8},
}

// MultiplierScheduleStats summarises one schedule across the sample
// population.
type MultiplierScheduleStats struct {
	Label     string
	HealEvery int
	// Mean/P95/Worst are delay-degradation percentages across samples.
	MeanPct, P95Pct, WorstPct float64
	// WorstShiftMV is the worst per-device threshold shift across every
	// sample's population, in millivolts.
	WorstShiftMV float64
	OverheadPct  float64
}

// MultiplierResult is the Monte Carlo study outcome.
type MultiplierResult struct {
	Samples   int
	Schedules []MultiplierScheduleStats
	// TailReduction is worst(no healing)/worst(best schedule) on the
	// degradation percentage — the guardband-setting statistic.
	TailReduction float64
}

var _ Result = (*MultiplierResult)(nil)

// ID implements Result.
func (*MultiplierResult) ID() string { return "multiplier" }

// Title implements Result.
func (*MultiplierResult) Title() string {
	return "Multiplier Monte Carlo — NBTI under process variation, per-sample campaign points"
}

// Format implements Result.
func (r *MultiplierResult) Format() string {
	t := &table{header: []string{"Schedule", "mean deg (%)", "P95 deg (%)", "worst deg (%)", "worst ΔVth (mV)", "overhead (%)"}}
	for _, s := range r.Schedules {
		t.add(s.Label,
			fmt.Sprintf("%.2f", s.MeanPct),
			fmt.Sprintf("%.2f", s.P95Pct),
			fmt.Sprintf("%.2f", s.WorstPct),
			fmt.Sprintf("%.2f", s.WorstShiftMV),
			fmt.Sprintf("%.1f", s.OverheadPct))
	}
	return t.String() + fmt.Sprintf("\nworst-sample degradation reduced %.1fx across %d process-variation samples\n",
		r.TailReduction, r.Samples)
}

// PlanZooMultiplier declares the Monte Carlo sweep: schedules × samples
// independent points, assembled into per-schedule tail statistics.
func PlanZooMultiplier() campaign.Task {
	d, ok := scenario.Lookup("multiplier")
	if !ok {
		return errorTask("multiplier", fmt.Errorf("experiments: scenario \"multiplier\" not registered"))
	}
	var points []campaign.Point
	for _, sched := range multiplierSchedules {
		for s := 0; s < multiplierSamples; s++ {
			points = append(points, scenarioPoint(
				fmt.Sprintf("multiplier/%s/s%02d", sched.Key, s),
				d, multiplierSteps, sched.HealEvery, multiplierSeedBase+int64(s)))
		}
	}
	return campaign.Task{
		ID:     "multiplier",
		Points: points,
		Assemble: func(results []any) (any, error) {
			res := &MultiplierResult{Samples: multiplierSamples}
			for j, sched := range multiplierSchedules {
				degs := make([]float64, multiplierSamples)
				var worstShift, overhead float64
				for s := 0; s < multiplierSamples; s++ {
					run := results[j*multiplierSamples+s].(*scenario.RunResult)
					degs[s] = degradationPct(*run)
					if run.WorstShiftV > worstShift {
						worstShift = run.WorstShiftV
					}
					overhead = run.HealOverheadFrac()
				}
				_, worst := mathx.MinMax(degs)
				res.Schedules = append(res.Schedules, MultiplierScheduleStats{
					Label:        sched.Label,
					HealEvery:    sched.HealEvery,
					MeanPct:      mathx.Mean(degs),
					P95Pct:       mathx.Percentile(degs, 95),
					WorstPct:     worst,
					WorstShiftMV: worstShift * 1000,
					OverheadPct:  overhead * 100,
				})
			}
			base := res.Schedules[0].WorstPct
			best := base
			for _, s := range res.Schedules[1:] {
				if s.WorstPct < best {
					best = s.WorstPct
				}
			}
			if best > 0 {
				res.TailReduction = base / best
			}
			return res, nil
		},
	}
}
