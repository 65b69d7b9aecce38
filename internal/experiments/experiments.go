// Package experiments contains one experiment per table and figure of the
// paper's evaluation, plus the ablations called out in DESIGN.md. Each
// experiment declares a campaign task: the set of independent simulation
// points it needs, plus an assemble step that combines them into a typed
// result rendered as the paper-style table/series. The CLI (cmd/deepheal)
// executes the plans on one shared campaign engine (parallel, memoised,
// resumable); the benchmark harness (bench_test.go) and the integration
// tests call Run, which executes the same plans serially — so the numbers
// recorded in EXPERIMENTS.md are produced by exactly one code path either
// way.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"deepheal/internal/campaign"
)

// Result is a completed experiment.
type Result interface {
	// ID is the experiment identifier (e.g. "table1", "fig5").
	ID() string
	// Title describes the paper artefact being reproduced.
	Title() string
	// Format renders the result as the paper-style table or series.
	Format() string
}

// Entry is one registered experiment: a stable identifier plus the campaign
// plan that computes it.
type Entry struct {
	ID string
	// Plan declares the experiment's campaign task. Calling it is cheap and
	// side-effect free; the physics happens when the points run.
	Plan func() campaign.Task
}

// Run executes the entry's plan as a one-task campaign on one worker (no
// journal).
func (e Entry) Run(ctx context.Context) (Result, error) {
	outcomes, err := campaign.Run(ctx, []campaign.Task{e.Plan()}, campaign.Options{Workers: 1})
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	v := outcomes[0].Value
	r, ok := v.(Result)
	if !ok {
		return nil, fmt.Errorf("experiments: %s assembled a %T, not a Result", e.ID, v)
	}
	return r, nil
}

// registry is the package-level experiment table, in presentation order.
var registry = []Entry{
	{"table1", PlanTable1},
	{"fig4", PlanFig4},
	{"fig5", PlanFig5},
	{"fig6", PlanFig6},
	{"fig7", PlanFig7},
	{"fig9", PlanFig9},
	{"fig10", PlanFig10},
	{"fig12", PlanFig12},
	{"ablation-em-freq", PlanAblationEMFrequency},
	{"ablation-bti-cond", PlanAblationBTIConditions},
	{"ablation-schedule", PlanAblationSchedule},
	{"ablation-policies", PlanPolicyZoo},
	{"ablation-rebalance", PlanAblationRebalance},
	{"ablation-sizing", PlanSizingStudy},
	{"variation", PlanVariation},
	{"decoder", PlanZooDecoder},
	{"dnnmem", PlanZooDNNMem},
	{"multiplier", PlanZooMultiplier},
}

// Registry returns the experiment table, in presentation order.
func Registry() []Entry {
	return append([]Entry(nil), registry...)
}

// Lookup finds a registered experiment by id.
func Lookup(id string) (Entry, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Entry{}, false
}

// Run executes the experiment with the given id.
func Run(ctx context.Context, id string) (Result, error) {
	e, ok := Lookup(id)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (available: %s)",
			id, strings.Join(SortedIDs(), ", "))
	}
	return e.Run(ctx)
}

// IDs lists the registered experiment identifiers in presentation order.
func IDs() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.ID
	}
	return out
}

// SortedIDs lists the registered experiment identifiers in lexical order —
// the stable form for error messages and help output, which must not
// reshuffle as the registry grows.
func SortedIDs() []string {
	ids := IDs()
	sort.Strings(ids)
	return ids
}

// Plans expands experiment ids (all of them when none are given) into
// campaign tasks, ready for campaign.Run.
func Plans(ids ...string) ([]campaign.Task, error) {
	if len(ids) == 0 {
		ids = IDs()
	}
	tasks := make([]campaign.Task, 0, len(ids))
	for _, id := range ids {
		e, ok := Lookup(id)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown experiment %q (available: %s)",
				id, strings.Join(SortedIDs(), ", "))
		}
		tasks = append(tasks, e.Plan())
	}
	return tasks, nil
}

// table is a small text-table builder shared by the result formatters.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

// String renders the table with aligned columns and a separator row.
func (t *table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len([]rune(h))
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len([]rune(c)) > widths[i] {
				widths[i] = len([]rune(c))
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			for p := len([]rune(c)); p < widths[i]; p++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i, w := range widths {
		sep[i] = strings.Repeat("-", w)
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}
