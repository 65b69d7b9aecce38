package experiments

import (
	"context"
	"fmt"

	"deepheal/internal/bti"
	"deepheal/internal/campaign"
	"deepheal/internal/units"
)

// RebalanceRow is one idle-time strategy in the A5 ablation.
type RebalanceRow struct {
	Strategy   string
	IdleCond   bti.Condition
	ShiftV     float64
	PermanentV float64
}

// RebalanceResult is the A5 ablation: what to do with a block's idle time.
// Prior work rebalances signal probabilities to maximise *passive* recovery
// ([14],[15] in the paper) or raises rail voltages for a recovery boost
// ([17]); the paper's proposal actively reverses the stress. All four
// strategies get the same 50 % activity over the same window.
type RebalanceResult struct {
	WindowHours float64
	Duty        float64
	Rows        []RebalanceRow
}

var _ Result = (*RebalanceResult)(nil)

// ID implements Result.
func (*RebalanceResult) ID() string { return "ablation-rebalance" }

// Title implements Result.
func (*RebalanceResult) Title() string {
	return "Ablation A5 — idle-time strategies: prior-work rebalancing vs. deep healing"
}

// Format implements Result.
func (r *RebalanceResult) Format() string {
	t := &table{header: []string{"Idle-time strategy", "Idle condition", "ΔVth (mV)", "Permanent (mV)"}}
	for _, row := range r.Rows {
		t.add(row.Strategy, row.IdleCond.String(),
			fmt.Sprintf("%.2f", row.ShiftV*1000),
			fmt.Sprintf("%.2f", row.PermanentV*1000))
	}
	out := t.String()
	out += fmt.Sprintf("\n%.0f h window at %.0f%% activity: rebalancing idle time into passive recovery helps,\n"+
		"but only active+accelerated idle time (deep healing) also empties the permanent component\n",
		r.WindowHours, r.Duty*100)
	return out
}

// rebalance protocol constants.
const (
	rebalanceWindowHours = 48
	rebalanceDuty        = 0.5
	rebalanceQuantumH    = 1.0
)

// rebalanceStrategies are the idle-time disciplines under comparison.
var rebalanceStrategies = []struct {
	name string
	idle bti.Condition
}{
	{"none (idle stays biased)", bti.StressAccel},
	{"signal rebalancing → passive idle", bti.Condition{GateVoltage: 0, Temp: bti.StressAccel.Temp}},
	{"recovery boost → weak reverse bias", bti.Condition{GateVoltage: -0.1, Temp: bti.StressAccel.Temp}},
	{"deep healing → active+accelerated idle", bti.RecoverDeep},
}

// rebalanceShift is one strategy's end-of-window state.
type rebalanceShift struct {
	ShiftV     float64
	PermanentV float64
}

// rebalancePoint runs one idle-time strategy over the shared window.
func rebalancePoint(key string, idle bti.Condition) campaign.Point {
	params := bti.DefaultParams()
	hash := campaign.Hash("bti/rebalance", params, bti.StressAccel, idle,
		rebalanceWindowHours, rebalanceDuty, rebalanceQuantumH)
	return campaign.NewPoint(key, hash, func(ctx context.Context) (*rebalanceShift, error) {
		dev, err := bti.NewDevice(params)
		if err != nil {
			return nil, err
		}
		if idle == bti.StressAccel {
			// Idle stays biased: the device is effectively stressed for the
			// whole window.
			dev.Apply(bti.StressAccel, units.Hours(rebalanceWindowHours))
		} else if err := dev.ApplyDuty(bti.StressAccel, idle,
			units.Hours(rebalanceWindowHours), rebalanceDuty, units.Hours(rebalanceQuantumH)); err != nil {
			return nil, err
		}
		return &rebalanceShift{ShiftV: dev.ShiftV(), PermanentV: dev.PermanentV()}, nil
	})
}

// PlanAblationRebalance declares the idle-time strategy comparison.
func PlanAblationRebalance() campaign.Task {
	t := campaign.Task{ID: "ablation-rebalance"}
	for i, s := range rebalanceStrategies {
		t.Points = append(t.Points, rebalancePoint(
			fmt.Sprintf("ablation-rebalance/s%d", i), s.idle))
	}
	t.Assemble = func(results []any) (any, error) {
		res := &RebalanceResult{WindowHours: rebalanceWindowHours, Duty: rebalanceDuty}
		for i, s := range rebalanceStrategies {
			shift := results[i].(*rebalanceShift)
			res.Rows = append(res.Rows, RebalanceRow{
				Strategy:   s.name,
				IdleCond:   s.idle,
				ShiftV:     shift.ShiftV,
				PermanentV: shift.PermanentV,
			})
		}
		return res, nil
	}
	return t
}
