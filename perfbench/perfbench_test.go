package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"deepheal/internal/campaign"
	"deepheal/internal/engine"
	"deepheal/internal/experiments"
)

// tinyConfig shrinks every workload to a few steps, one or two batches and
// one experiment, so the self-tests run in seconds.
func tinyConfig(t *testing.T) config {
	return config{
		workers:  2,
		chipRows: 16, chipCols: 16, chipSteps: 6,
		experiments: []string{"table1"},
		fleetChips:  6, fleetTicks: 2,
		churnChips: 6, churnResident: 2, churnTicks: 2,
		queries: 3,
		tmp:     t.TempDir(),
	}
}

func run(t *testing.T, w workload, cfg config, rec *recorder) *result {
	t.Helper()
	res, err := measure(context.Background(), w, cfg, 3, 0, rec, nil)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	return res
}

func TestEveryMetricEmittedWithUnit(t *testing.T) {
	cfg := tinyConfig(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			var rec *recorder
			want := endToEnd
			if traced {
				rec, want = newRecorder(), perLayer()
			}
			res := run(t, w, cfg, rec)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d",
					w.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, s := range want {
				m, ok := res.Metrics[s.name]
				if !ok || m.Unit == "" || m.Unit != s.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v", w.name, traced, s.name, m)
				}
			}
			if !traced {
				if got := res.Metrics["success_rate"].Value; got != 1 {
					t.Errorf("%s: success_rate %v, want 1 (error rate 0)", w.name, got)
				}
				for _, s := range endToEnd {
					if res.Metrics[s.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v, want > 0", w.name, s.name, res.Metrics[s.name].Value)
					}
				}
			}
		}
	}
}

// TestBenchmarkJSONMatches keeps the contract file and the code in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var b struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []named, want []spec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d, code emits %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, code %+v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer())
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, code has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, b.Workloads[i].Name, w.name)
		}
	}
}

func TestDigestRecordedForEveryVariant(t *testing.T) {
	for _, w := range workloads {
		if _, err := expectedDigests(w.name); err != nil {
			t.Error(err)
		}
	}
}

// TestSpansNestAndMatchStageTimes drives a traced chip round directly: every
// child span lies inside its parent, and the per-stage span sums equal the
// simulator's own StageTimes().
func TestSpansNestAndMatchStageTimes(t *testing.T) {
	cfg := tinyConfig(t)
	rec := newRecorder()
	r, err := setupChip(context.Background(), cfg, 0, rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	root := rec.id()
	t0 := time.Now()
	o, err := r.run(context.Background(), root)
	rec.add(root, 0, "round", t0, time.Now(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(o.ops) != cfg.chipSteps {
		t.Fatalf("%d ops, want %d", len(o.ops), cfg.chipSteps)
	}
	spans := rec.all()
	checkNesting(t, spans)
	sums := map[string]time.Duration{}
	for _, s := range spans {
		sums[s.Name] += time.Duration(s.End - s.Start)
	}
	for stage, d := range r.(*chipRound).sim.StageTimes() {
		if got := sums["core."+string(stage)]; got != d {
			t.Errorf("stage %s: spans sum to %v, StageTimes %v", stage, got, d)
		}
	}
	if sums["core."+string(engine.StageWearout)] == 0 {
		t.Error("no wearout stage spans recorded")
	}
}

func checkNesting(t *testing.T, spans []span) {
	t.Helper()
	byID := map[int64]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("span %d %s ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Errorf("span %d %s: parent %d missing", s.ID, s.Name, s.Parent)
			continue
		}
		if s.Start < p.Start || s.End > p.End {
			t.Errorf("span %d %s [%d,%d] outside parent %s [%d,%d]",
				s.ID, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
	}
}

func TestTracedSpansNestOnEveryWorkload(t *testing.T) {
	cfg := tinyConfig(t)
	for _, w := range workloads {
		rec := newRecorder()
		run(t, w, cfg, rec)
		spans := rec.all()
		if len(spans) < 2 {
			t.Errorf("%s: %d spans", w.name, len(spans))
		}
		checkNesting(t, spans)
	}
}

// TestChipDigestIndependentOfWorkers: the sharded wearout stage must not
// change a single output bit.
func TestChipDigestIndependentOfWorkers(t *testing.T) {
	digests := map[int]string{}
	for _, workers := range []int{1, 2} {
		cfg := tinyConfig(t)
		cfg.workers = workers
		r, err := setupChip(context.Background(), cfg, 5, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		o, err := r.run(context.Background(), 0)
		r.close()
		if err != nil {
			t.Fatal(err)
		}
		digests[workers] = o.digest
	}
	if digests[1] != digests[2] {
		t.Fatalf("chip digest at 1 worker %s, at 2 workers %s", digests[1], digests[2])
	}
}

// TestLayerCountsRepeat: two traced runs on one seed count the same work.
// Snapshot byte totals are left out: which chips the LRU suspends follows
// completion order across the pool workers, and snapshot sizes differ
// slightly from chip to chip.
func TestLayerCountsRepeat(t *testing.T) {
	cfg := tinyConfig(t)
	for _, name := range []string{"campaign-all", "fleet-churn"} {
		w, _ := lookupWorkload(name)
		a, b := run(t, w, cfg, newRecorder()), run(t, w, cfg, newRecorder())
		for _, c := range []string{"campaign.points_run", "campaign.journal_records", "fleet.suspends", "fleet.rehydrates", "thermal.settles"} {
			if a.Metrics[c] != b.Metrics[c] {
				t.Errorf("%s %s: %v then %v", name, c, a.Metrics[c].Value, b.Metrics[c].Value)
			}
		}
	}
	w, _ := lookupWorkload("fleet-churn")
	res := run(t, w, cfg, newRecorder())
	if res.Metrics["fleet.suspends"].Value == 0 || res.Metrics["core.checkpoint_bytes"].Value == 0 {
		t.Errorf("fleet-churn suspended nothing: %+v", res.Metrics)
	}
}

// TestInterleavedCampaignAssemblesAsRegistered: points run as interleaved
// one-point tasks keep each experiment's point order and assemble the same
// results as campaign.Run over the experiments as registered.
func TestInterleavedCampaignAssemblesAsRegistered(t *testing.T) {
	ctx := context.Background()
	cfg := tinyConfig(t)
	cfg.experiments = []string{"table1", "fig4", "ablation-rebalance"}
	rd, err := setupCampaign(ctx, cfg, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.close()
	r := rd.(*campaignRound)
	next := make([]int, len(r.tasks))
	mixed := false
	for u, f := range r.from {
		if f[1] != next[f[0]] {
			t.Fatalf("unit %d is point %d of %s, want point %d", u, f[1], r.tasks[f[0]].ID, next[f[0]])
		}
		next[f[0]]++
		mixed = mixed || (u > 0 && f[0] != r.from[u-1][0] && next[r.from[u-1][0]] < len(r.tasks[r.from[u-1][0]].Points))
	}
	if !mixed {
		t.Error("no experiment's points were interleaved with another's")
	}
	o, err := r.run(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	tasks, err := experiments.Plans(cfg.experiments...)
	if err != nil {
		t.Fatal(err)
	}
	outs, err := campaign.Run(ctx, tasks, campaign.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	results := make([]any, len(outs))
	for i, out := range outs {
		results[i] = out.Value
	}
	if want, err := r.digest(results); err != nil || o.digest != want {
		t.Fatalf("interleaved digest %s, registered order %s (%v)", o.digest, want, err)
	}
}

func TestDigestMismatchFailsEveryOp(t *testing.T) {
	cfg := tinyConfig(t)
	w, _ := lookupWorkload("fleet-1k")
	wrong := map[int]string{}
	for v := 0; v < variants; v++ {
		wrong[v] = "not-the-digest"
	}
	res, err := measure(context.Background(), w, cfg, 1, 0, nil, wrong)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 || res.Failed != res.Attempted {
		t.Fatalf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
	}
}

func TestTailKeepsTenSamplesBeyondUpToP99(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, pct := tail(xs)
	if v != 90 || pct != 90 {
		t.Fatalf("tail = %v at p%v, want 90 at p90", v, pct)
	}
	if v, pct := tail(xs[:5]); v != 5 || pct != 100 {
		t.Fatalf("short tail = %v at p%v", v, pct)
	}
	long := make([]float64, 5000)
	for i := range long {
		long[i] = float64(i + 1)
	}
	if v, pct := tail(long); v != 4950 || pct != 99 {
		t.Fatalf("long tail = %v at p%v, want 4950 at the p99 cap", v, pct)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Fatalf("median = %v", m)
	}
}

func TestCompareRefusesOtherHostAndSortsBySize(t *testing.T) {
	h := fingerprint()
	a := &result{Host: h, Workload: "chip-16x16", Trace: true, Metrics: map[string]metric{
		"core.wearout_ms":   {2, "ms"},
		"core.plan_ms":      {1, "ms"},
		"bti.kernel_builds": {0, "count"},
		"fleet.snapshot_ms": {5, "ms"},
	}}
	b := &result{Host: h, Workload: "chip-16x16", Trace: true, Metrics: map[string]metric{
		"core.wearout_ms":   {3, "ms"},
		"core.plan_ms":      {1.1, "ms"},
		"bti.kernel_builds": {4, "count"},
		"fleet.snapshot_ms": {5, "ms"},
	}}
	changes, err := compare(a, b)
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	for _, c := range changes {
		order = append(order, c.Name)
	}
	want := []string{"bti.kernel_builds", "core.wearout_ms", "core.plan_ms", "fleet.snapshot_ms"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
	other := *b
	other.Host.NProc++
	if _, err := compare(a, &other); err == nil {
		t.Fatal("compare accepted results from different hosts")
	}
}

func TestVariantOfCoversNegativeSeeds(t *testing.T) {
	for _, seed := range []int64{-1, 0, 7, 8, 1 << 40} {
		if v := variantOf(seed); v < 0 || v >= variants {
			t.Errorf("variantOf(%d) = %d", seed, v)
		}
	}
	if variantOf(3) != variantOf(3+variants) {
		t.Error("variants do not wrap")
	}
}
