package campaign

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
)

// sumTask builds a task whose points each return *float64 and whose
// assemble adds them up, tagging the result with the task id.
func sumTask(id string, vals ...float64) Task {
	t := Task{ID: id}
	for i, v := range vals {
		v := v
		t.Points = append(t.Points, NewPoint(
			fmt.Sprintf("%s/p%d", id, i),
			Hash(id, i, v),
			func(context.Context) (*float64, error) { out := v; return &out, nil },
		))
	}
	t.Assemble = func(results []any) (any, error) {
		sum := 0.0
		for _, r := range results {
			sum += *r.(*float64)
		}
		return fmt.Sprintf("%s=%g", id, sum), nil
	}
	return t
}

// TestRunTaskSerial runs one task on one worker, the way a single
// experiment runs outside a campaign.
func TestRunTaskSerial(t *testing.T) {
	outcomes, err := Run(context.Background(), []Task{sumTask("a", 1, 2, 3)}, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if v := outcomes[0].Value; v != "a=6" {
		t.Fatalf("got %v", v)
	}
}

func TestRunDeliversInOrderForEveryWorkerCount(t *testing.T) {
	tasks := []Task{sumTask("a", 1), sumTask("b", 2, 3), sumTask("c", 4, 5, 6)}
	for _, workers := range []int{1, 2, 8} {
		var order []string
		outcomes, err := Run(context.Background(), tasks, Options{
			Workers: workers,
			OnTask:  func(o Outcome) { order = append(order, fmt.Sprint(o.Value)) },
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		want := []string{"a=1", "b=5", "c=15"}
		if strings.Join(order, " ") != strings.Join(want, " ") {
			t.Errorf("workers=%d: delivery order %v", workers, order)
		}
		for i, o := range outcomes {
			if o.Err != nil || fmt.Sprint(o.Value) != want[i] {
				t.Errorf("workers=%d: outcome[%d] = %v, %v", workers, i, o.Value, o.Err)
			}
			for _, p := range o.Points {
				if p.Source != "run" {
					t.Errorf("unexpected source %q for %s", p.Source, p.Key)
				}
			}
		}
	}
}

func TestValidateRejectsAmbiguousCampaigns(t *testing.T) {
	ctx := context.Background()
	if _, err := Run(ctx, []Task{sumTask("a", 1), sumTask("a", 2)}, Options{}); err == nil {
		t.Error("duplicate task id accepted")
	}
	dup := []Task{sumTask("a", 1), sumTask("b", 2)}
	dup[1].Points[0].Key = "a/p0"
	if _, err := Run(ctx, dup, Options{}); err == nil {
		t.Error("duplicate point key accepted")
	}
	if _, err := Run(ctx, []Task{{ID: "x", Points: []Point{{Key: "k", Run: nil}}, Assemble: func([]any) (any, error) { return nil, nil }}}, Options{}); err == nil {
		t.Error("nil Run accepted")
	}
}

func TestMemoComputesSharedHashOnce(t *testing.T) {
	var runs atomic.Int64
	point := func(task string, i int) Point {
		return NewPoint(fmt.Sprintf("%s/p%d", task, i), "shared-hash",
			func(context.Context) (*float64, error) {
				runs.Add(1)
				out := 42.0
				return &out, nil
			})
	}
	var tasks []Task
	for ti := 0; ti < 4; ti++ {
		task := Task{ID: fmt.Sprintf("t%d", ti)}
		for pi := 0; pi < 8; pi++ {
			task.Points = append(task.Points, point(task.ID, pi))
		}
		task.Assemble = func(results []any) (any, error) {
			for _, r := range results {
				if *r.(*float64) != 42.0 {
					return nil, errors.New("wrong memo value")
				}
			}
			return len(results), nil
		}
		tasks = append(tasks, task)
	}
	outcomes, err := Run(context.Background(), tasks, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("shared point computed %d times, want 1", got)
	}
	memoised := 0
	for _, o := range outcomes {
		for _, p := range o.Points {
			if p.Source == "memo" {
				memoised++
			}
		}
	}
	if memoised != 31 {
		t.Errorf("memo hits = %d, want 31", memoised)
	}
}

func TestPointErrorWinsByDeclarationOrder(t *testing.T) {
	bad := Task{
		ID: "bad",
		Points: []Point{
			NewPoint("bad/ok", "", func(context.Context) (*float64, error) { v := 1.0; return &v, nil }),
			NewPoint("bad/boom", "", func(context.Context) (*float64, error) { return nil, errors.New("boom") }),
		},
		Assemble: func([]any) (any, error) { return nil, errors.New("assemble must not run") },
	}
	var delivered []string
	outcomes, err := Run(context.Background(), []Task{sumTask("first", 1), bad, sumTask("after", 2)},
		Options{Workers: 4, OnTask: func(o Outcome) { delivered = append(delivered, o.Task) }})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v", err)
	}
	if len(outcomes) != 3 || outcomes[1].Err == nil {
		t.Fatalf("outcomes broken: %+v", outcomes)
	}
	// A failed point quarantines its task but never the stream: every
	// outcome is delivered in order, the failed one included.
	if !errors.Is(outcomes[1].Err, ErrQuarantined) {
		t.Errorf("failed task error %v does not mark quarantine", outcomes[1].Err)
	}
	if strings.Join(delivered, " ") != "first bad after" {
		t.Errorf("delivered %v, want [first bad after]", delivered)
	}
	// Tasks after the failed one still ran to completion.
	if outcomes[2].Err != nil || fmt.Sprint(outcomes[2].Value) != "after=2" {
		t.Errorf("task after failure: %v, %v", outcomes[2].Value, outcomes[2].Err)
	}
}

func TestCancelledContextSurfacesAndFlushesPrefix(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var delivered []string
	blocker := Task{
		ID: "blocker",
		Points: []Point{NewPoint("blocker/p", "", func(ctx context.Context) (*float64, error) {
			cancel() // cancel mid-campaign while this point is running
			v := 1.0
			return &v, ctx.Err()
		})},
		Assemble: func(results []any) (any, error) { return "blocked", nil },
	}
	_, err := Run(ctx, []Task{sumTask("done", 3), blocker, sumTask("never", 1)}, Options{
		Workers: 1,
		OnTask:  func(o Outcome) { delivered = append(delivered, o.Task) },
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if strings.Join(delivered, " ") != "done" {
		t.Errorf("delivered %v, want the completed prefix [done]", delivered)
	}
}

func TestJournalResumeSkipsCompletedPoints(t *testing.T) {
	dir := t.TempDir()
	var runs atomic.Int64
	mk := func() []Task {
		t1 := sumTask("t1", 1, 2)
		t2 := Task{ID: "t2"}
		for i := 0; i < 3; i++ {
			i := i
			t2.Points = append(t2.Points, NewPoint(
				fmt.Sprintf("t2/p%d", i), Hash("t2", i),
				func(context.Context) (*float64, error) {
					runs.Add(1)
					v := float64(i) * 1.5
					return &v, nil
				}))
		}
		t2.Assemble = func(results []any) (any, error) {
			sum := 0.0
			for _, r := range results {
				sum += *r.(*float64)
			}
			return sum, nil
		}
		return []Task{t1, t2}
	}

	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	first, err := Run(context.Background(), mk(), Options{Workers: 2, Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if got := runs.Load(); got != 3 {
		t.Fatalf("first run computed %d t2 points, want 3", got)
	}

	j2, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Restorable() != 5 {
		t.Fatalf("journal holds %d points, want 5", j2.Restorable())
	}
	second, err := Run(context.Background(), mk(), Options{Workers: 1, Journal: j2})
	if err != nil {
		t.Fatal(err)
	}
	if got := runs.Load(); got != 3 {
		t.Errorf("resume recomputed points: %d total runs, want 3", got)
	}
	for ti, o := range second {
		if fmt.Sprint(o.Value) != fmt.Sprint(first[ti].Value) {
			t.Errorf("%s: resumed value %v != fresh %v", o.Task, o.Value, first[ti].Value)
		}
		for _, p := range o.Points {
			if p.Source != "journal" {
				t.Errorf("%s: source %q, want journal", p.Key, p.Source)
			}
		}
	}
}

func TestJournalToleratesTornTailAndHashChanges(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), []Task{sumTask("a", 7)}, Options{Journal: j}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Simulate a kill mid-append: a torn trailing line.
	path := filepath.Join(dir, journalName)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"key":"torn","hash":"xyz","gob":"AAA`)
	f.Close()

	j2, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Restorable() != 1 {
		t.Fatalf("restorable = %d, want 1 (torn line dropped)", j2.Restorable())
	}

	// A changed hash (different inputs) must recompute, not restore.
	changed := sumTask("a", 8) // same keys, different value → different hash
	out, err := Run(context.Background(), []Task{changed}, Options{Journal: j2})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(out[0].Value) != "a=8" {
		t.Errorf("stale journal value used: %v", out[0].Value)
	}
	if out[0].Points[0].Source != "run" {
		t.Errorf("source = %q, want run after hash change", out[0].Points[0].Source)
	}
}

func TestUnjournalableResultDegradesGracefully(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	type bad struct{ C chan int } // gob cannot encode channels
	task := Task{
		ID: "weird",
		Points: []Point{NewPoint("weird/p", Hash("weird"),
			func(context.Context) (*bad, error) { return &bad{C: make(chan int)}, nil })},
		Assemble: func(results []any) (any, error) { return "ok", nil },
	}
	out, err := Run(context.Background(), []Task{task}, Options{Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Points[0].Journaled {
		t.Error("unencodable result claims to be journaled")
	}
	if j.Restorable() != 0 {
		t.Error("unencodable result landed in the journal index")
	}
}

func TestHashIsOrderAndBoundarySensitive(t *testing.T) {
	if Hash("ab", "c") == Hash("a", "bc") {
		t.Error("length prefixing broken: part boundaries collide")
	}
	if Hash(1, 2) == Hash(2, 1) {
		t.Error("hash ignores part order")
	}
	if Hash(struct{ A float64 }{1.5}) != Hash(struct{ A float64 }{1.5}) {
		t.Error("hash not deterministic")
	}
	s1 := SampledSeries("w", 10, func(i int) float64 { return float64(i) })
	s2 := SampledSeries("w", 10, func(i int) float64 { return float64(i) })
	s3 := SampledSeries("w", 10, func(i int) float64 { return float64(i + 1) })
	if s1 != s2 || s1 == s3 {
		t.Error("sampled series digest broken")
	}
}

// BenchmarkEngineOverhead measures the per-point scheduling cost with
// trivial points — the fixed tax the campaign engine adds on top of the
// physics.
func BenchmarkEngineOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tasks := []Task{sumTask("a", 1, 2, 3, 4), sumTask("b", 5, 6, 7, 8)}
		if _, err := Run(context.Background(), tasks, Options{Workers: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestPreQuarantinedPointsAreRecordedNotRun(t *testing.T) {
	var runs atomic.Int64
	task := Task{ID: "q"}
	mkPoint := func(i int) Point {
		return NewPoint(fmt.Sprintf("q/p%d", i), Hash("preq", i),
			func(context.Context) (*float64, error) {
				runs.Add(1)
				v := float64(i)
				return &v, nil
			})
	}
	for i := 0; i < 3; i++ {
		task.Points = append(task.Points, mkPoint(i))
	}
	task.Assemble = func(results []any) (any, error) { return len(results), nil }
	poisoned := map[string]string{task.Points[1].Hash: "killed 3 workers"}

	outcomes, err := Run(context.Background(), []Task{task}, Options{
		Workers: 1, Quarantined: poisoned,
	})
	if err == nil || !errors.Is(err, ErrQuarantined) {
		t.Fatalf("run error = %v, want ErrQuarantined", err)
	}
	if runs.Load() != 2 {
		t.Errorf("executed %d points, want 2 (the listed one must never run)", runs.Load())
	}
	qs := QuarantinedPoints(outcomes)
	if len(qs) != 1 || qs[0].Key != "q/p1" || qs[0].Source != "quarantined" {
		t.Fatalf("quarantined = %+v, want q/p1 with source \"quarantined\"", qs)
	}
	if !strings.Contains(qs[0].Err, "killed 3 workers") {
		t.Errorf("quarantined stat error %q lost the marker's cause", qs[0].Err)
	}
}

func TestJournalRecordWinsOverPreQuarantine(t *testing.T) {
	dir := t.TempDir()
	var runs atomic.Int64
	task := Task{ID: "q"}
	task.Points = append(task.Points, NewPoint("q/p0", Hash("jq", 0),
		func(context.Context) (*float64, error) {
			runs.Add(1)
			v := 42.0
			return &v, nil
		}))
	task.Assemble = func(results []any) (any, error) { return len(results), nil }
	// First run journals the value.
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), []Task{task}, Options{Workers: 1, Journal: j}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	// Second run pre-quarantines the same hash: the journaled value is
	// better evidence than the crash history and must win.
	j2, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	outcomes, err := Run(context.Background(), []Task{task}, Options{
		Workers: 1, Journal: j2,
		Quarantined: map[string]string{task.Points[0].Hash: "stale marker"},
	})
	if err != nil {
		t.Fatalf("journaled point still quarantined: %v", err)
	}
	if runs.Load() != 1 || outcomes[0].Points[0].Source != "journal" {
		t.Errorf("runs=%d source=%q, want 1 run total and journal restore", runs.Load(), outcomes[0].Points[0].Source)
	}
}
