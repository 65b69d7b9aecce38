package experiments

import (
	"fmt"

	"deepheal/internal/bti"
	"deepheal/internal/campaign"
	"deepheal/internal/units"
)

// Table1Row is one recovery condition of the paper's Table I.
type Table1Row struct {
	Case          string
	Condition     bti.Condition
	PaperMeasured float64 // fraction recovered, paper measurement column
	PaperModel    float64 // fraction recovered, paper model column
	Simulated     float64 // fraction recovered, this reproduction
}

// Table1Result reproduces Table I: BTI recovery percentage for a 6-hour
// recovery following a 24-hour constant accelerated stress.
type Table1Result struct {
	StressHours, RecoveryHours float64
	Rows                       []Table1Row
}

var _ Result = (*Table1Result)(nil)

// ID implements Result.
func (*Table1Result) ID() string { return "table1" }

// Title implements Result.
func (*Table1Result) Title() string {
	return "Table I — BTI recovery after 24 h accelerated stress (6 h recovery)"
}

// Format implements Result.
func (r *Table1Result) Format() string {
	t := &table{header: []string{"Test Case", "Recovery Condition", "Paper meas.", "Paper model", "Simulated"}}
	for _, row := range r.Rows {
		t.add(row.Case, row.Condition.String(),
			units.Percent(row.PaperMeasured), units.Percent(row.PaperModel), units.Percent(row.Simulated))
	}
	return t.String()
}

// table1Cases are the paper's four recovery conditions with their measured
// and modelled anchors.
var table1Cases = []struct {
	name     string
	cond     bti.Condition
	measured float64
	model    float64
}{
	{"No. 1", bti.RecoverPassive, 0.0066, 0.010},
	{"No. 2", bti.RecoverActive, 0.167, 0.144},
	{"No. 3", bti.RecoverAccelerated, 0.287, 0.292},
	{"No. 4", bti.RecoverDeep, 0.724, 0.727},
}

// PlanTable1 declares the Table I campaign task: one recovery-fraction
// point per paper condition. The same four conditions appear inside the
// ablation-bti-cond grid, so a campaign running both computes them once.
func PlanTable1() campaign.Task {
	t := campaign.Task{ID: "table1"}
	for i, c := range table1Cases {
		t.Points = append(t.Points, btiRecoveryFractionPoint(
			fmt.Sprintf("table1/no%d", i+1), c.cond, 24, 6))
	}
	t.Assemble = func(results []any) (any, error) {
		res := &Table1Result{StressHours: 24, RecoveryHours: 6}
		for i, c := range table1Cases {
			res.Rows = append(res.Rows, Table1Row{
				Case:          c.name,
				Condition:     c.cond,
				PaperMeasured: c.measured,
				PaperModel:    c.model,
				Simulated:     *results[i].(*float64),
			})
		}
		return res, nil
	}
	return t
}
