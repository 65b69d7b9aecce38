package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"deepheal/internal/campaign"
	"deepheal/internal/campaign/dist"
	"deepheal/internal/faultinject"
	"deepheal/internal/golden"
)

// serialRef is one experiment's serial reference, computed at most once per
// test binary through Entry.Run — the path the committed digests were
// recorded from. Every test that needs an experiment's result reads it here
// instead of running the experiment again, so the result is shared and must
// never be mutated (TestMain checks).
type serialRef struct {
	once   sync.Once
	res    Result
	format []byte // res.Format()
	value  []byte // golden.Render(res) when computed
	err    error
}

var refs = func() map[string]*serialRef {
	m := make(map[string]*serialRef, len(registry))
	for _, e := range registry {
		m[e.ID] = new(serialRef)
	}
	return m
}()

// reference returns the serial reference for id, computing it on first use
// so that any -run selection works: whichever test asks first computes it.
func reference(tb testing.TB, id string) *serialRef {
	tb.Helper()
	r, ok := refs[id]
	if !ok {
		tb.Fatalf("no registered experiment %q", id)
	}
	r.once.Do(func() {
		e, _ := Lookup(id)
		if r.res, r.err = e.Run(context.Background()); r.err == nil {
			r.format = []byte(r.res.Format())
			r.value = golden.Render(r.res)
		}
	})
	if r.err != nil {
		tb.Fatalf("%s: serial reference: %v", id, r.err)
	}
	return r
}

// runAs returns experiment id's serial reference as its typed result.
func runAs[R Result](tb testing.TB, id string) R {
	tb.Helper()
	res := reference(tb, id).res
	r, ok := res.(R)
	if !ok {
		tb.Fatalf("%s assembled a %T", id, res)
	}
	return r
}

// TestMain fails the binary when a test mutated a shared reference: every
// reference computed during the run must still render to the bytes it had
// when it was computed.
func TestMain(m *testing.M) {
	code := m.Run()
	for _, id := range IDs() {
		r := refs[id]
		if r.res != nil && !bytes.Equal(golden.Render(r.res), r.value) {
			fmt.Fprintf(os.Stderr, "FAIL: the %s serial reference was mutated by a test: its golden.Render bytes changed after it was computed\n", id)
			code = 1
		}
	}
	os.Exit(code)
}

// checkDigests pins an experiment's output to the committed sha256 digests:
// the rounded table and the full-precision value.
func checkDigests(t *testing.T, id string, format, value []byte) {
	t.Helper()
	golden.Check(t, "testdata/format.sha256", id, format)
	golden.Check(t, "testdata/value.sha256", id, value)
}

// identityRow is one execution mode of the output contract (serial =
// parallel = distributed = killed-and-resumed, byte for byte): run computes
// ids that way and returns the assembled results by experiment id.
type identityRow struct {
	name string
	ids  []string
	run  func(t *testing.T, ids []string) map[string]Result
}

// TestOutputIdentity diffs every execution mode against the serial
// reference, Format() and golden.Render bytes both, and pins each mode's
// bytes to the committed digests. A new execution mode is one more row. No
// row may be parallel: the fault rows install the process-wide injector,
// and they remove it before returning, so a reference computed after a row
// runs fault-free.
func TestOutputIdentity(t *testing.T) {
	rows := []identityRow{
		{"parallel", IDs(), onWorkers(8)},
		{"workers-2", []string{"multiplier"}, onWorkers(2)},
		{"workers-4", []string{"decoder", "dnnmem", "multiplier"}, onWorkers(4)},
		{"journal-kill-resume", []string{"table1", "fig4", "variation"}, journalKillResume},
		{"coordinate", []string{"multiplier"}, coordinate},
		{"coordinate-worker-kill", []string{"table1", "fig4", "fig5"}, coordinateWorkerKill},
		{"coordinate-kill-resume", []string{"multiplier"}, coordinateKillResume},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			got := row.run(t, row.ids)
			for _, id := range row.ids {
				t.Run(id, func(t *testing.T) {
					res, ok := got[id]
					if !ok {
						t.Fatalf("%s produced no result", row.name)
					}
					want := reference(t, id)
					format, value := []byte(res.Format()), golden.Render(res)
					diffBytes(t, "Format()", want.format, format)
					diffBytes(t, "golden.Render", want.value, value)
					checkDigests(t, id, format, value)
				})
			}
		})
	}
}

// diffBytes reports where got first departs from the serial reference
// want, with some bytes of context on each side.
func diffBytes(t *testing.T, what string, want, got []byte) {
	t.Helper()
	if bytes.Equal(want, got) {
		return
	}
	i := 0
	for i < len(want) && i < len(got) && want[i] == got[i] {
		i++
	}
	around := func(b []byte) []byte { return b[min(max(i-40, 0), len(b)):min(i+40, len(b))] }
	t.Errorf("%s differs from the serial reference at byte %d:\n  serial: %q\n  this:   %q", what, i, around(want), around(got))
}

// skipShort skips the row under -short: it recomputes whole experiments.
func skipShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("recomputes whole experiments; not short")
	}
}

// plans expands ids into fresh campaign tasks.
func plans(t *testing.T, ids []string) []campaign.Task {
	t.Helper()
	tasks, err := Plans(ids...)
	if err != nil {
		t.Fatal(err)
	}
	return tasks
}

// results maps successful outcomes to their assembled results by id.
func results(t *testing.T, outcomes []campaign.Outcome) map[string]Result {
	t.Helper()
	out := make(map[string]Result, len(outcomes))
	for _, o := range outcomes {
		if o.Err != nil {
			t.Fatalf("%s: %v", o.Task, o.Err)
		}
		out[o.Task] = o.Value.(Result)
	}
	return out
}

// onWorkers runs ids as one campaign on a pool of the given size. Worker
// count 1 is the reference itself.
func onWorkers(workers int) func(*testing.T, []string) map[string]Result {
	return func(t *testing.T, ids []string) map[string]Result {
		skipShort(t)
		outcomes, err := campaign.Run(context.Background(), plans(t, ids), campaign.Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return results(t, outcomes)
	}
}

// journalKillResume cancels a journal-backed campaign as soon as its first
// experiment is delivered — the simulated kill — then resumes it on two
// workers: every point completed before the kill restores from the journal.
func journalKillResume(t *testing.T, ids []string) map[string]Result {
	dir := t.TempDir()
	j, err := campaign.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	killCtx, cancel := context.WithCancel(context.Background())
	_, err = campaign.Run(killCtx, plans(t, ids), campaign.Options{
		Workers: 1,
		Journal: j,
		OnTask:  func(campaign.Outcome) { cancel() },
	})
	cancel()
	j.Close()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("kill run: err = %v, want context.Canceled", err)
	}

	j2, err := campaign.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Restorable() < 4 {
		t.Fatalf("journal holds %d points after kill, want at least table1's 4", j2.Restorable())
	}
	outcomes, err := campaign.Run(context.Background(), plans(t, ids), campaign.Options{Workers: 2, Journal: j2})
	if err != nil {
		t.Fatal(err)
	}
	restored := 0
	for _, o := range outcomes {
		for _, p := range o.Points {
			if p.Source == "journal" {
				restored++
			}
		}
	}
	if restored < 4 {
		t.Errorf("resume restored %d points, want at least table1's 4", restored)
	}
	if outcomes[0].Points[0].Source != "journal" {
		t.Errorf("first completed point re-ran on resume (source %q)", outcomes[0].Points[0].Source)
	}
	return results(t, outcomes)
}

// publish writes the manifest for ids into a fresh campaign directory and
// checks it lists every point of the plan.
func publish(t *testing.T, ids []string) (string, *dist.Manifest) {
	t.Helper()
	dir := t.TempDir()
	tasks := plans(t, ids)
	m, err := dist.Publish(dir, ids, tasks)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, task := range tasks {
		want += len(task.Points)
	}
	if len(m.Points) != want {
		t.Fatalf("manifest has %d points, want %d", len(m.Points), want)
	}
	return dir, m
}

// startWorkers launches n in-process workers on dir, holding leases for
// ttl (0 is the 30 s default). Each plans its tasks from the manifest's
// experiment ids, as `deepheal worker` does. The returned wait joins them
// and reports their stats and errors.
func startWorkers(ctx context.Context, t *testing.T, dir string, m *dist.Manifest, name string, n int, ttl time.Duration) func() ([]dist.WorkerStats, []error) {
	t.Helper()
	stats, errs := make([]dist.WorkerStats, n), make([]error, n)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		tasks := plans(t, m.Experiments)
		wg.Add(1)
		go func() {
			defer wg.Done()
			stats[w], errs[w] = dist.RunWorker(ctx, dir, m, tasks, dist.WorkerOptions{
				ID:       fmt.Sprintf("%s%d", name, w),
				LeaseTTL: ttl,
				Poll:     5 * time.Millisecond,
				NoSync:   true,
			})
		}()
	}
	return func() ([]dist.WorkerStats, []error) {
		wg.Wait()
		return stats, errs
	}
}

// drain waits until every manifest point is accounted for in some shard.
func drain(t *testing.T, dir string, m *dist.Manifest) error {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	return dist.WaitDrained(ctx, dir, m, dist.DrainOptions{Poll: 5 * time.Millisecond})
}

// mergeAndAssemble merges the worker shards into the canonical journal and
// runs the coordinator's final assembly over it: every point must restore
// from the journal, none recompute.
func mergeAndAssemble(t *testing.T, dir string, m *dist.Manifest) map[string]Result {
	t.Helper()
	st, err := dist.MergeShards(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Absorbed != len(m.Points) {
		t.Errorf("merge absorbed %d records, want %d", st.Absorbed, len(m.Points))
	}
	j, err := campaign.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	outcomes, err := campaign.Run(context.Background(), plans(t, m.Experiments), campaign.Options{Workers: 1, Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range outcomes {
		for _, ps := range o.Points {
			if ps.Source != "journal" {
				t.Errorf("point %s satisfied by %q, want journal (worker-computed)", ps.Key, ps.Source)
			}
		}
	}
	return results(t, outcomes)
}

// coordinate is the full distributed sequence: publish, two workers, drain,
// shard merge, assembly over the merged journal.
func coordinate(t *testing.T, ids []string) map[string]Result {
	skipShort(t)
	dir, m := publish(t, ids)
	wait := startWorkers(context.Background(), t, dir, m, "w", 2, 0)
	if err := drain(t, dir, m); err != nil {
		t.Fatal(err)
	}
	_, errs := wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	return mergeAndAssemble(t, dir, m)
}

// shardHashes lists the point hashes recorded in dir's worker shards whose
// worker id matches glob.
func shardHashes(t *testing.T, dir, glob string) map[string]bool {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "shards", glob+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	hashes := map[string]bool{}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range bytes.Split(data, []byte("\n")) {
			var rec struct{ Hash string }
			if json.Unmarshal(line, &rec) == nil && rec.Hash != "" {
				hashes[rec.Hash] = true
			}
		}
	}
	return hashes
}

// enableFaults installs a one-site fault plan for the rest of the row.
func enableFaults(t *testing.T, site faultinject.Site, sched faultinject.Schedule) {
	t.Helper()
	inj, err := faultinject.New(7, map[faultinject.Site]faultinject.Schedule{site: sched})
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(inj)
	t.Cleanup(faultinject.Disable)
}

// coordinateWorkerKill kills a lone worker after its first computed point,
// its result unrecorded and its lease still held. Only then does a survivor
// join: it must steal the abandoned lease once the short TTL expires and
// drain the queue alone.
func coordinateWorkerKill(t *testing.T, ids []string) map[string]Result {
	skipShort(t)
	dir, m := publish(t, ids)
	enableFaults(t, faultinject.SiteWorkerDie, faultinject.Schedule{Occurrences: []uint64{1}})

	const ttl = 100 * time.Millisecond
	_, errs := startWorkers(context.Background(), t, dir, m, "dead", 1, ttl)()
	if !errors.Is(errs[0], dist.ErrWorkerDied) {
		t.Fatalf("doomed worker returned %v, want ErrWorkerDied", errs[0])
	}
	stats, errs := startWorkers(context.Background(), t, dir, m, "survivor", 1, ttl)()
	if errs[0] != nil {
		t.Fatalf("surviving worker: %v", errs[0])
	}
	if stats[0].Stolen != 1 {
		t.Errorf("survivor stole %d leases, want the dead worker's 1", stats[0].Stolen)
	}
	if got := faultinject.Fired(faultinject.SiteWorkerDie); got != 1 {
		t.Errorf("worker-die fired %d times, want 1", got)
	}
	faultinject.Disable()
	if err := drain(t, dir, m); err != nil {
		t.Fatal(err)
	}
	return mergeAndAssemble(t, dir, m)
}

// coordinateKillResume kills the coordinator on its second drain progress
// change — after at least one point is banked in a shard, before the merge
// — then resumes the directory: the resumed coordinator reloads the
// manifest, restores every banked point without re-running it, drains the
// remainder, merges and assembles. No banked hash may appear in a shard of
// the second life; the merge must cover every manifest point.
func coordinateKillResume(t *testing.T, ids []string) map[string]Result {
	skipShort(t)
	dir, m := publish(t, ids)
	enableFaults(t, faultinject.SiteCoordinatorDie, faultinject.Schedule{Occurrences: []uint64{2}})

	workerCtx, stopWorkers := context.WithCancel(context.Background())
	wait := startWorkers(workerCtx, t, dir, m, "life1-", 2, 0)
	err := drain(t, dir, m)
	stopWorkers()
	wait()
	if !errors.Is(err, dist.ErrCoordinatorDied) {
		t.Fatalf("killed drain returned %v, want ErrCoordinatorDied", err)
	}
	faultinject.Disable()
	if _, err := os.Stat(filepath.Join(dir, "journal.jsonl")); !os.IsNotExist(err) {
		t.Fatalf("crashed coordinator must not have merged: journal stat err=%v", err)
	}

	banked := shardHashes(t, dir, "life1-*")
	m2, st, err := dist.Resume(dir, ids, plans(t, ids))
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed == 0 || st.Completed != len(banked) {
		t.Fatalf("resume found %d banked points, want the %d hashes in the first life's shards (at least 1)", st.Completed, len(banked))
	}
	_, errs := startWorkers(context.Background(), t, dir, m2, "life2-", 2, 0)()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("resumed worker %d: %v", w, err)
		}
	}
	for h := range shardHashes(t, dir, "life2-*") {
		if banked[h] {
			t.Errorf("banked point %.16s re-executed on resume", h)
		}
	}
	if err := drain(t, dir, m2); err != nil {
		t.Fatal(err)
	}
	return mergeAndAssemble(t, dir, m2)
}
