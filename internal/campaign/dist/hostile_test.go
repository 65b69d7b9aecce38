package dist

// Hostile-fleet tests: coordinator crash-resume, worker heartbeats and
// liveness, stall detection, and poison-point quarantine.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"deepheal/internal/campaign"
	"deepheal/internal/faultinject"
	"deepheal/internal/obs"
)

func TestHeartbeatClassifyAndCensus(t *testing.T) {
	hb := heartbeat{Worker: "w0", Written: 1000, Expires: 2000} // TTL 1s
	for _, tc := range []struct {
		now  int64
		want string
	}{
		{1500, workerLive},
		{2000, workerLive},
		{2500, workerSuspect}, // expired 0.5 TTLs ago
		{3900, workerSuspect}, // expired 1.9 TTLs ago
		{4100, workerDead},    // expired 2.1 TTLs ago
	} {
		if got := hb.classify(tc.now); got != tc.want {
			t.Errorf("classify(now=%d) = %s, want %s", tc.now, got, tc.want)
		}
	}
	hbs := []heartbeat{
		{Worker: "alive", Written: 1000, Expires: 2000},
		{Worker: "ghost", Written: 0, Expires: 1},
		{Worker: "retired", Written: 0, Expires: 1, Done: true},
		{Worker: "sus", Written: 500, Expires: 1600},
	}
	live, suspect, dead := censusWorkers(hbs, 1800)
	if live != 1 || suspect != 1 || len(dead) != 1 || dead[0] != "ghost" {
		t.Errorf("census = live %d, suspect %d, dead %v; want 1, 1, [ghost]", live, suspect, dead)
	}
}

func TestHeartbeatRoundTripSkipsCorrupt(t *testing.T) {
	dir := t.TempDir()
	now := time.Now().UnixMilli()
	writeHeartbeat(dir, heartbeat{Worker: "w0", Completed: 3, Inflight: "t1/p3", Written: now, Expires: now + 1000})
	writeHeartbeat(dir, heartbeat{Worker: "w1", Completed: 1, Done: true, Written: now, Expires: now + 1000})
	if err := os.WriteFile(heartbeatPath(dir, "torn"), []byte(`{"worker":"to`), 0o644); err != nil {
		t.Fatal(err)
	}
	hbs, err := readHeartbeats(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(hbs) != 2 || hbs[0].Worker != "w0" || hbs[1].Worker != "w1" {
		t.Fatalf("readHeartbeats = %+v, want w0 and w1 (torn skipped, sorted)", hbs)
	}
	if hbs[0].Completed != 3 || hbs[0].Inflight != "t1/p3" || !hbs[1].Done {
		t.Errorf("heartbeat fields lost in round trip: %+v", hbs)
	}
}

// TestCoordinatorCrashResumeRestoresWithoutRerun is the crash-resume e2e at
// the dist layer: a worker banks part of the queue and dies, the coordinator
// "crashes" (nothing merged), and Resume + a fresh worker finish the job.
// Every banked point must be absorbed, never re-executed, and the restored
// count must land in the resume metric.
func TestCoordinatorCrashResumeRestoresWithoutRerun(t *testing.T) {
	reg := obs.NewRegistry()
	EnableMetrics(reg)
	defer EnableMetrics(nil)

	var runs atomic.Int64
	tasks := testTasks(&runs, 0)
	ids := []string{"t1", "t2"}
	dir := t.TempDir()
	m, err := Publish(dir, ids, tasks)
	if err != nil {
		t.Fatal(err)
	}

	// First life: the worker completes three points, then its fourth leased
	// execution is lost to an injected death (computed but never recorded).
	inj, err := faultinject.New(1, map[faultinject.Site]faultinject.Schedule{
		faultinject.SiteWorkerDie: {Occurrences: []uint64{4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(inj)
	_, werr := RunWorker(context.Background(), dir, m, tasks, WorkerOptions{
		ID: "w0", LeaseTTL: 50 * time.Millisecond, Poll: time.Millisecond, NoSync: true,
	})
	faultinject.Disable()
	if !errors.Is(werr, ErrWorkerDied) {
		t.Fatalf("first worker: %v, want ErrWorkerDied", werr)
	}
	if got := runs.Load(); got != 4 {
		t.Fatalf("first life executed %d points, want 4 (3 banked + 1 lost)", got)
	}

	// Second life: resume against the same directory. The manifest is
	// reloaded, not republished, and the banked records are restored — the
	// three shard records cover four manifest points, because t2/shared
	// dedups against t1/p1's content hash.
	m2, st, err := Resume(dir, ids, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed != 4 {
		t.Fatalf("resume found %d banked points, want 4 (state %+v)", st.Completed, st)
	}
	if len(m2.Points) != len(m.Points) {
		t.Fatalf("resumed manifest has %d points, want %d", len(m2.Points), len(m.Points))
	}
	time.Sleep(60 * time.Millisecond) // let the dead worker's lease expire
	if _, err := RunWorker(context.Background(), dir, m2, tasks, WorkerOptions{
		ID: "w1", LeaseTTL: time.Second, Poll: time.Millisecond, NoSync: true,
	}); err != nil {
		t.Fatal(err)
	}
	if st, err := Progress(dir, m2); err != nil || !st.Drained() {
		t.Fatalf("not drained after resume: %+v err=%v", st, err)
	}
	if _, err := MergeShards(dir); err != nil {
		t.Fatal(err)
	}

	// 7 distinct hashes; the crashed point ran twice (once lost), so 8 total
	// executions — and crucially none of the 3 banked points ran again.
	if got := runs.Load(); got != 8 {
		t.Errorf("total executions = %d, want 8 (7 distinct + 1 lost to the crash)", got)
	}
	j, err := campaign.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	outcomes, err := campaign.Run(context.Background(), tasks, campaign.Options{Workers: 1, Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	var serialRuns atomic.Int64
	assertSameValues(t, runSerial(t, testTasks(&serialRuns, 0)), outcomes)

	if got := reg.Snapshot().Counters["deepheal_dist_resume_restored_total"]; got != 4 {
		t.Errorf("resume_restored_total = %d, want 4", got)
	}
}

func TestResumeRejectsDifferentPlan(t *testing.T) {
	var runs atomic.Int64
	tasks := testTasks(&runs, 0)
	dir := t.TempDir()
	if _, err := Publish(dir, []string{"t1", "t2"}, tasks); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Resume(dir, []string{"t1"}, tasks[:1]); err == nil {
		t.Error("resume accepted a different experiment selection")
	}
	mutated := testTasks(&runs, 0)
	mutated[0].Points[1] = campaign.NewPoint("t1/p1", campaign.Hash("dist-test", "different", 1),
		func(ctx context.Context) (*float64, error) { v := 0.0; return &v, nil })
	if _, _, err := Resume(dir, []string{"t1", "t2"}, mutated); err == nil || !strings.Contains(err.Error(), "revision") {
		t.Errorf("resume accepted a mutated plan: %v", err)
	}
	if _, _, err := Resume(t.TempDir(), []string{"t1", "t2"}, tasks); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("resume of an unpublished dir: %v, want ErrNotExist", err)
	}
}

// TestPoisonPointQuarantinedAfterMaxAttempts walks the full poison path:
// a point that kills every worker that leases it burns through the attempt
// budget worker by worker, is quarantined by the next would-be thief, and
// the final assembly records it without executing it.
func TestPoisonPointQuarantinedAfterMaxAttempts(t *testing.T) {
	var runs atomic.Int64
	tasks := testTasks(&runs, 0)
	dir := t.TempDir()
	m, err := Publish(dir, []string{"t1", "t2"}, tasks)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faultinject.New(1, map[faultinject.Site]faultinject.Schedule{
		faultinject.SiteWorkerDie: {Prob: 1, Key: "t1/p2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(inj)
	defer faultinject.Disable()

	opts := func(id string) WorkerOptions {
		return WorkerOptions{ID: id, LeaseTTL: 30 * time.Millisecond, Poll: time.Millisecond, MaxAttempts: 2, NoSync: true}
	}
	for gen, id := range []string{"w0", "w1"} {
		if _, err := RunWorker(context.Background(), dir, m, tasks, opts(id)); !errors.Is(err, ErrWorkerDied) {
			t.Fatalf("generation %d: %v, want ErrWorkerDied", gen, err)
		}
		time.Sleep(40 * time.Millisecond) // the dead worker's lease expires
	}
	stats, err := RunWorker(context.Background(), dir, m, tasks, opts("w2"))
	if err != nil {
		t.Fatalf("surviving worker: %v", err)
	}
	if stats.Quarantined != 1 {
		t.Fatalf("survivor quarantined %d points, want 1 (stats %+v)", stats.Quarantined, stats)
	}
	st, err := Progress(dir, m)
	if err != nil || !st.Drained() || st.Quarantined != 1 {
		t.Fatalf("progress after quarantine: %+v err=%v", st, err)
	}
	if _, err := MergeShards(dir); err != nil {
		t.Fatal(err)
	}
	poisoned, err := QuarantinedFailures(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(poisoned) != 1 {
		t.Fatalf("QuarantinedFailures = %v, want exactly the poison point", poisoned)
	}
	for _, msg := range poisoned {
		if !strings.Contains(msg, "2 time(s)") {
			t.Errorf("quarantine cause %q does not carry the attempt count", msg)
		}
	}

	// Final assembly: the poison point must be recorded, not executed.
	before := runs.Load()
	j, err := campaign.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	outcomes, err := campaign.Run(context.Background(), tasks, campaign.Options{
		Workers: 1, Journal: j, Quarantined: poisoned,
	})
	if err != nil && !errors.Is(err, campaign.ErrQuarantined) {
		t.Fatal(err)
	}
	if got := runs.Load(); got != before {
		t.Errorf("final assembly executed %d point(s); the poison point must never run again", got-before)
	}
	qs := campaign.QuarantinedPoints(outcomes)
	if len(qs) != 1 || qs[0].Key != "t1/p2" || qs[0].Source != "quarantined" {
		t.Errorf("quarantined points = %+v, want t1/p2 with source \"quarantined\"", qs)
	}
	// The healthy task (t2) still assembles and matches serial.
	faultinject.Disable()
	var serialRuns atomic.Int64
	serial := runSerial(t, testTasks(&serialRuns, 0))
	if fmt.Sprint(outcomes[1].Value) != fmt.Sprint(serial[1].Value) {
		t.Errorf("healthy task t2: distributed %v != serial %v", outcomes[1].Value, serial[1].Value)
	}
}

// TestDrainSweepQuarantinesDeadFleet covers the case no stealing worker can:
// the poison point killed every worker, so only the coordinator's own sweep
// can account for it and let the drain finish.
func TestDrainSweepQuarantinesDeadFleet(t *testing.T) {
	var runs atomic.Int64
	tasks := testTasks(&runs, 0)
	dir := t.TempDir()
	m, err := Publish(dir, []string{"t1", "t2"}, tasks)
	if err != nil {
		t.Fatal(err)
	}
	// Every point's lease died maxAttempts times; no workers remain.
	for _, mp := range m.Points {
		data, _ := json.Marshal(lease{Worker: "casualty", Key: mp.Key, Expires: 1, Attempts: 3})
		if err := os.WriteFile(leasePath(dir, mp.Hash), append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := WaitDrained(ctx, dir, m, DrainOptions{Poll: time.Millisecond, MaxAttempts: 3}); err != nil {
		t.Fatalf("drain did not complete via the quarantine sweep: %v", err)
	}
	st, err := Progress(dir, m)
	if err != nil || st.Quarantined != st.Total {
		t.Fatalf("progress after sweep: %+v err=%v, want all %d points quarantined", st, err, st.Total)
	}
}

func TestDrainStallsWhenFleetSilent(t *testing.T) {
	var runs atomic.Int64
	tasks := testTasks(&runs, 0)
	dir := t.TempDir()
	m, err := Publish(dir, []string{"t1", "t2"}, tasks)
	if err != nil {
		t.Fatal(err)
	}
	// One worker heartbeat on record, long dead; no completions ever.
	writeHeartbeat(dir, heartbeat{Worker: "ghost", Written: 1, Expires: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err = WaitDrained(ctx, dir, m, DrainOptions{Poll: 2 * time.Millisecond, StallWindow: 60 * time.Millisecond})
	if !errors.Is(err, ErrDrainStalled) {
		t.Fatalf("drain over a dead fleet: %v, want ErrDrainStalled", err)
	}
	if !strings.Contains(err.Error(), "ghost") {
		t.Errorf("stall error %q does not name the dead worker", err)
	}
}

// TestDrainSurvivesSlowPointWithLiveHeartbeat is the negative control: a
// solve much longer than the stall window must NOT stall the drain as long
// as the worker's heartbeat shows it alive — the in-flight renewal ticker
// is what keeps the fleet demonstrably breathing between completions.
func TestDrainSurvivesSlowPointWithLiveHeartbeat(t *testing.T) {
	slow := campaign.Task{ID: "slow", Assemble: assembleSum}
	slow.Points = append(slow.Points, campaign.NewPoint("slow/p0", campaign.Hash("slow-point"),
		func(ctx context.Context) (*float64, error) {
			select {
			case <-time.After(400 * time.Millisecond):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			v := 1.0
			return &v, nil
		}))
	tasks := []campaign.Task{slow}
	dir := t.TempDir()
	m, err := Publish(dir, []string{"slow"}, tasks)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = RunWorker(context.Background(), dir, m, tasks, WorkerOptions{
			ID: "w0", LeaseTTL: 90 * time.Millisecond, HeartbeatTTL: 90 * time.Millisecond,
			Poll: time.Millisecond, NoSync: true,
		})
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err = WaitDrained(ctx, dir, m, DrainOptions{Poll: 5 * time.Millisecond, StallWindow: 150 * time.Millisecond})
	wg.Wait()
	if err != nil {
		t.Fatalf("drain stalled despite live heartbeats during a 400ms point: %v", err)
	}
}

// TestStealContentionExactlyOnce hammers the expired-lease takeover path —
// two contenders racing for the same work while a third heartbeats — and
// asserts the merged journal still assembles every value exactly once.
// Designed to run under -race: all coordination is through the filesystem
// fabric, so any in-process sharing bug in scanner/lease/heartbeat state is
// a data race here.
func TestStealContentionExactlyOnce(t *testing.T) {
	var serialRuns atomic.Int64
	serial := runSerial(t, testTasks(&serialRuns, 0))

	// Two injected deaths leave two expired leases for the survivors to
	// fight over; the short TTL maximises steal traffic.
	inj, err := faultinject.New(5, map[faultinject.Site]faultinject.Schedule{
		faultinject.SiteWorkerDie: {Occurrences: []uint64{2, 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(inj)
	defer faultinject.Disable()

	var distRuns atomic.Int64
	dir := t.TempDir()
	dist, st := runDistributed(t, dir, testTasks(&distRuns, 5*time.Millisecond), 3, 40*time.Millisecond)
	assertSameValues(t, serial, dist)
	if st.Absorbed != 7 {
		t.Errorf("merged %d records, want 7 — the assembly must see each hash exactly once", st.Absorbed)
	}
	for _, o := range dist {
		for _, p := range o.Points {
			if want := assembledSource(p.Key); p.Source != want {
				t.Errorf("point %s source %q, want %s (exactly-once via shard dedup)", p.Key, p.Source, want)
			}
		}
	}
}

// TestDistMetricsExposition checks the new instruments land in both
// exposition formats under their documented names.
func TestDistMetricsExposition(t *testing.T) {
	reg := obs.NewRegistry()
	EnableMetrics(reg)
	defer EnableMetrics(nil)

	dir := t.TempDir()
	if err := ensureLayout(dir); err != nil {
		t.Fatal(err)
	}
	now := time.Now().UnixMilli()
	writeHeartbeat(dir, heartbeat{Worker: "w0", Written: now, Expires: now + 1000})
	if _, err := readHeartbeats(dir); err != nil {
		t.Fatal(err)
	}
	if err := markQuarantined(dir, campaign.Hash("expo"), "k", 3, "boom"); err != nil {
		t.Fatal(err)
	}
	metResumeRestored.Add(5)
	metWorkersLive.Set(2)
	metWorkersSuspect.Set(1)
	metWorkersDead.Set(4)

	snap := reg.Snapshot()
	for name, want := range map[string]uint64{
		"deepheal_dist_heartbeats_written_total":  1,
		"deepheal_dist_heartbeats_observed_total": 1,
		"deepheal_dist_quarantines_total":         1,
		"deepheal_dist_resume_restored_total":     5,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("snapshot counter %s = %d, want %d", name, got, want)
		}
	}
	for name, want := range map[string]float64{
		"deepheal_dist_workers_live":    2,
		"deepheal_dist_workers_suspect": 1,
		"deepheal_dist_workers_dead":    4,
	} {
		if got := snap.Gauges[name]; got != want {
			t.Errorf("snapshot gauge %s = %v, want %v", name, got, want)
		}
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, line := range []string{
		"deepheal_dist_heartbeats_written_total 1",
		"deepheal_dist_heartbeats_observed_total 1",
		"deepheal_dist_quarantines_total 1",
		"deepheal_dist_resume_restored_total 5",
		"deepheal_dist_workers_live 2",
		"deepheal_dist_workers_suspect 1",
		"deepheal_dist_workers_dead 4",
	} {
		if !strings.Contains(text, line) {
			t.Errorf("prometheus exposition missing %q", line)
		}
	}
}
