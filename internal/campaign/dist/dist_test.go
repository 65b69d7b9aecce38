package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"deepheal/internal/campaign"
	"deepheal/internal/faultinject"
)

// testTasks builds a two-task campaign with deterministic float results and
// one cross-task duplicate hash (t2/shared repeats t1/p1's inputs), the
// shape the cross-shard result cache must exploit. runs counts actual
// Run invocations across every worker in the process.
func testTasks(runs *atomic.Int64, delay time.Duration) []campaign.Task {
	point := func(task string, i int, salt string) campaign.Point {
		key := fmt.Sprintf("%s/p%d", task, i)
		return campaign.NewPoint(key, campaign.Hash("dist-test", salt, i),
			func(ctx context.Context) (*float64, error) {
				runs.Add(1)
				if delay > 0 {
					select {
					case <-time.After(delay):
					case <-ctx.Done():
						return nil, ctx.Err()
					}
				}
				v := float64(i)*1.25 + float64(len(salt))
				return &v, nil
			})
	}
	t1 := campaign.Task{ID: "t1"}
	for i := 0; i < 4; i++ {
		t1.Points = append(t1.Points, point("t1", i, "a"))
	}
	t2 := campaign.Task{ID: "t2"}
	for i := 0; i < 3; i++ {
		t2.Points = append(t2.Points, point("t2", i, "b"))
	}
	// Duplicate content hash across tasks: same inputs as t1/p1, distinct key.
	shared := point("t1", 1, "a")
	shared.Key = "t2/shared"
	t2.Points = append(t2.Points, shared)
	t2.Assemble = assembleSum
	t1.Assemble = assembleSum
	return []campaign.Task{t1, t2}
}

// assembledSource is how an assembly pass over a fully merged journal
// satisfies a testTasks point: each distinct hash restores from the journal
// once, and t2/shared, which repeats t1/p1's hash, shares that restored
// value as a memo hit.
func assembledSource(key string) string {
	if key == "t2/shared" {
		return "memo"
	}
	return "journal"
}

func assembleSum(results []any) (any, error) {
	sum := 0.0
	for _, r := range results {
		sum += *r.(*float64)
	}
	return sum, nil
}

// runSerial executes tasks on the plain single-process engine.
func runSerial(t *testing.T, tasks []campaign.Task) []campaign.Outcome {
	t.Helper()
	outcomes, err := campaign.Run(context.Background(), tasks, campaign.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return outcomes
}

// runDistributed publishes tasks into dir, runs nWorkers in-process workers
// to drain the queue, merges the shards and assembles over the merged
// journal — the full coordinator sequence.
func runDistributed(t *testing.T, dir string, tasks []campaign.Task, nWorkers int, ttl time.Duration) ([]campaign.Outcome, MergeStats) {
	t.Helper()
	m, err := Publish(dir, []string{"t1", "t2"}, tasks)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, nWorkers)
	for w := 0; w < nWorkers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[w] = RunWorker(context.Background(), dir, m, tasks, WorkerOptions{
				ID:       fmt.Sprintf("w%d", w),
				LeaseTTL: ttl,
				Poll:     5 * time.Millisecond,
				NoSync:   true,
			})
		}()
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := WaitDrained(drainCtx, dir, m, DrainOptions{Poll: 5 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil && err != ErrWorkerDied {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	st, err := MergeShards(dir)
	if err != nil {
		t.Fatal(err)
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
	return outcomes, st
}

// assertSameValues compares assembled outcome values.
func assertSameValues(t *testing.T, serial, dist []campaign.Outcome) {
	t.Helper()
	if len(serial) != len(dist) {
		t.Fatalf("outcome count %d != %d", len(dist), len(serial))
	}
	for i := range serial {
		if fmt.Sprint(dist[i].Value) != fmt.Sprint(serial[i].Value) {
			t.Errorf("task %s: distributed %v != serial %v", serial[i].Task, dist[i].Value, serial[i].Value)
		}
	}
}

func TestDistributedMatchesSerial(t *testing.T) {
	var serialRuns, distRuns atomic.Int64
	serial := runSerial(t, testTasks(&serialRuns, 0))

	dir := t.TempDir()
	dist, st := runDistributed(t, dir, testTasks(&distRuns, 0), 2, time.Second)
	assertSameValues(t, serial, dist)

	// 7 distinct hashes (t2/shared dedups against t1/p1) across 8 points.
	if st.Absorbed != 7 {
		t.Errorf("merged %d records, want 7 (one per distinct hash)", st.Absorbed)
	}
	if st.Shards != 2 {
		t.Errorf("merged %d shards, want 2", st.Shards)
	}
	// The assembly pass must restore everything from the merged journal.
	for _, o := range dist {
		for _, p := range o.Points {
			if want := assembledSource(p.Key); p.Source != want {
				t.Errorf("point %s source %q after merge, want %s", p.Key, p.Source, want)
			}
		}
	}
	// Workers computed each distinct hash at most once per worker; the
	// cross-shard cache makes the total far below points×workers. The exact
	// split is timing-dependent, but the dedup'd hash must not run twice.
	if got := distRuns.Load(); got < 7 || got > 8 {
		t.Errorf("distributed run invocations = %d, want 7-8 (cache-deduplicated)", got)
	}
}

func TestWorkerDeathLeaseStealAndIdenticalOutput(t *testing.T) {
	var serialRuns, distRuns atomic.Int64
	serial := runSerial(t, testTasks(&serialRuns, 0))

	// The third SiteWorkerDie probe kills exactly one worker (whichever
	// completes the third leased point first); the survivor must steal the
	// abandoned lease after TTL and finish the queue alone.
	inj, err := faultinject.New(11, map[faultinject.Site]faultinject.Schedule{
		faultinject.SiteWorkerDie: {Occurrences: []uint64{3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(inj)
	defer faultinject.Disable()

	dir := t.TempDir()
	dist, _ := runDistributed(t, dir, testTasks(&distRuns, 10*time.Millisecond), 2, 300*time.Millisecond)
	assertSameValues(t, serial, dist)
	if faultinject.Fired(faultinject.SiteWorkerDie) != 1 {
		t.Fatalf("worker-die fired %d times, want 1", faultinject.Fired(faultinject.SiteWorkerDie))
	}
}

func TestMergeSkipsTornShardTail(t *testing.T) {
	dir := t.TempDir()
	var runs atomic.Int64
	tasks := testTasks(&runs, 0)
	m, err := Publish(dir, []string{"t1", "t2"}, tasks)
	if err != nil {
		t.Fatal(err)
	}
	// One worker drains the whole queue...
	if _, err := RunWorker(context.Background(), dir, m, tasks, WorkerOptions{
		ID: "w0", LeaseTTL: time.Second, Poll: time.Millisecond, NoSync: true,
	}); err != nil {
		t.Fatal(err)
	}
	// ...then its shard is torn mid-append, as a kill -9 during the final
	// record would leave it.
	shardPath := filepath.Join(dir, shardsDir, "w0.jsonl")
	data, err := os.ReadFile(shardPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(shardPath, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	st, err := MergeShards(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.TornTails != 1 {
		t.Errorf("torn tails = %d, want 1", st.TornTails)
	}
	if st.Absorbed != 6 {
		t.Errorf("absorbed %d records, want 6 (torn one skipped)", st.Absorbed)
	}

	// The final run recomputes exactly the torn point and matches serial.
	j, err := campaign.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	runs.Store(0)
	outcomes, err := campaign.Run(context.Background(), tasks, campaign.Options{Workers: 1, Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 1 {
		t.Errorf("final run recomputed %d points, want exactly the torn one", runs.Load())
	}
	var serialRuns atomic.Int64
	assertSameValues(t, runSerial(t, testTasks(&serialRuns, 0)), outcomes)
}

func TestFailedPointHandedBackToCoordinator(t *testing.T) {
	dir := t.TempDir()
	var runs atomic.Int64
	tasks := testTasks(&runs, 0)
	// Poison one point on the worker side only: the worker marks it failed
	// and drains; the coordinator's final run computes it cleanly.
	poisoned := tasks[0].Points[2]
	origRun := poisoned.Run
	fail := true
	tasks[0].Points[2].Run = func(ctx context.Context) (any, error) {
		if fail {
			return nil, fmt.Errorf("injected worker-side failure")
		}
		return origRun(ctx)
	}
	m, err := Publish(dir, []string{"t1", "t2"}, tasks)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := RunWorker(context.Background(), dir, m, tasks, WorkerOptions{
		ID: "w0", LeaseTTL: time.Second, Poll: time.Millisecond, NoSync: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Failed != 1 {
		t.Fatalf("worker failed %d points, want 1", stats.Failed)
	}
	if st, err := Progress(dir, m); err != nil || !st.Drained() {
		t.Fatalf("queue not drained after failure marker: %+v err=%v", st, err)
	}
	if _, err := MergeShards(dir); err != nil {
		t.Fatal(err)
	}
	j, err := campaign.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	fail = false
	outcomes, err := campaign.Run(context.Background(), tasks, campaign.Options{Workers: 1, Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	var nRun, nJournal, nMemo int
	for _, o := range outcomes {
		for _, p := range o.Points {
			switch p.Source {
			case "run":
				nRun++
			case "journal":
				nJournal++
			case "memo":
				nMemo++
			}
		}
	}
	if nRun != 1 {
		t.Errorf("coordinator computed %d points, want exactly the failed one", nRun)
	}
	// 7 of the 8 points were banked; t2/shared shares t1/p1's restored value.
	if nJournal != 6 || nMemo != 1 {
		t.Errorf("coordinator restored %d points and memoised %d, want 6 and 1 (t2/shared)", nJournal, nMemo)
	}
}

func TestManifestRoundTripAndWait(t *testing.T) {
	dir := t.TempDir()
	var runs atomic.Int64
	tasks := testTasks(&runs, 0)

	// WaitManifest blocks until Publish lands.
	done := make(chan *Manifest, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		m, err := WaitManifest(ctx, dir, time.Millisecond)
		if err != nil {
			t.Error(err)
		}
		done <- m
	}()
	time.Sleep(20 * time.Millisecond)
	pub, err := Publish(dir, []string{"t1", "t2"}, tasks)
	if err != nil {
		t.Fatal(err)
	}
	got := <-done
	if got == nil || len(got.Points) != len(pub.Points) {
		t.Fatalf("waited manifest %+v != published %+v", got, pub)
	}
	if len(pub.Points) != 8 {
		t.Fatalf("manifest has %d points, want 8", len(pub.Points))
	}
	for i, p := range pub.Points {
		if p.Seq != i || p.Hash == "" || p.Key == "" {
			t.Errorf("manifest point %d malformed: %+v", i, p)
		}
	}

	// An unknown version is refused, not misread.
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	bad := strings.Replace(string(data), `"version": 1`, `"version": 99`, 1)
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(dir); err == nil {
		t.Error("future manifest version accepted")
	}
}

func TestLeaseExpiryIsStolen(t *testing.T) {
	dir := t.TempDir()
	for _, sub := range []string{leasesDir} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	hash := campaign.Hash("lease-test")
	c, err := acquireLease(dir, hash, "k", "w0", 50*time.Millisecond, 0)
	if err != nil || !c.ok || c.stolen || c.attempts != 1 {
		t.Fatalf("fresh acquire: %+v err=%v", c, err)
	}
	// A live lease is respected.
	c, err = acquireLease(dir, hash, "k", "w1", 50*time.Millisecond, 0)
	if err != nil || c.ok {
		t.Fatalf("live lease stolen: %+v err=%v", c, err)
	}
	time.Sleep(70 * time.Millisecond)
	c, err = acquireLease(dir, hash, "k", "w1", time.Second, 0)
	if err != nil || !c.ok || !c.stolen || c.attempts != 2 {
		t.Fatalf("expired lease not stolen with attempt carried: %+v err=%v", c, err)
	}
	releaseLease(dir, hash)
	c, err = acquireLease(dir, hash, "k", "w2", time.Second, 0)
	if err != nil || !c.ok || c.stolen || c.attempts != 1 {
		t.Fatalf("released lease not reacquirable fresh: %+v err=%v", c, err)
	}
}

func TestLeaseAttemptBudgetPoisons(t *testing.T) {
	dir := t.TempDir()
	if err := ensureLayout(dir); err != nil {
		t.Fatal(err)
	}
	hash := campaign.Hash("poison-lease-test")
	// Two crashes: acquire then let expire, steal then let expire.
	if c, err := acquireLease(dir, hash, "k", "w0", 10*time.Millisecond, 2); err != nil || !c.ok {
		t.Fatalf("fresh acquire: %+v err=%v", c, err)
	}
	time.Sleep(20 * time.Millisecond)
	if c, err := acquireLease(dir, hash, "k", "w1", 10*time.Millisecond, 2); err != nil || !c.ok || c.attempts != 2 {
		t.Fatalf("first steal: %+v err=%v", c, err)
	}
	time.Sleep(20 * time.Millisecond)
	// Attempt budget exhausted: the third worker must see poison, not steal.
	c, err := acquireLease(dir, hash, "k", "w2", time.Second, 2)
	if err != nil || c.ok || !c.poisoned {
		t.Fatalf("exhausted lease not reported poisoned: %+v err=%v", c, err)
	}
	if c.attempts != 2 || c.last.Worker != "w1" {
		t.Errorf("poison claim lost history: %+v", c)
	}
	// With no budget (<=0) the same lease is still stealable forever.
	if c, err := acquireLease(dir, hash, "k", "w3", time.Second, 0); err != nil || !c.ok || !c.stolen || c.attempts != 3 {
		t.Fatalf("unbudgeted steal of exhausted lease: %+v err=%v", c, err)
	}
}

// corruptLeases are lease files no live claim leaves behind; each must read
// as stealable. FuzzParseLease starts from them too.
func corruptLeases() map[string][]byte {
	old, _ := json.Marshal(lease{Worker: "ancient", Key: "k", Expires: 12, Attempts: 1})
	return map[string][]byte{
		"empty file":     {},
		"truncated JSON": []byte(`{"worker":"w0","key":"k","expi`),
		"binary garbage": {0xde, 0xad, 0xbe, 0xef, '\n'},
		"ancient valid":  append(old, '\n'),
	}
}

func TestCorruptLeaseIsStealable(t *testing.T) {
	dir := t.TempDir()
	if err := ensureLayout(dir); err != nil {
		t.Fatal(err)
	}
	for name, contents := range corruptLeases() {
		t.Run(name, func(t *testing.T) {
			hash := campaign.Hash("corrupt-lease", name)
			if err := os.WriteFile(leasePath(dir, hash), contents, 0o644); err != nil {
				t.Fatal(err)
			}
			// Progress/drain must not choke on the lease either: readLease is
			// the only parser, and it must hand back "stealable", not an error.
			held, valid, absent, err := readLease(leasePath(dir, hash))
			if err != nil || absent {
				t.Fatalf("readLease: held=%+v valid=%v absent=%v err=%v", held, valid, absent, err)
			}
			if name == "ancient valid" && !valid {
				t.Fatal("ancient valid lease parsed as corrupt")
			}
			c, err := acquireLease(dir, hash, "k", "thief", time.Second, 3)
			if err != nil || !c.ok || !c.stolen {
				t.Fatalf("%s not stolen: %+v err=%v", name, c, err)
			}
			// A corrupt lease has no attempt history; a valid expired one does.
			want := 2
			if name != "ancient valid" {
				want = 1
			}
			if c.attempts != want {
				t.Errorf("%s: attempts = %d, want %d", name, c.attempts, want)
			}
		})
	}
}

// TestFreshLeaseContentionExactlyOneClaim races several in-process workers
// for one fresh point, round after round: exactly one may come away with a
// claim. A lease whose file is visible before its contents are written reads
// as torn, hence stealable, and hands the live point to a second worker.
func TestFreshLeaseContentionExactlyOneClaim(t *testing.T) {
	dir := t.TempDir()
	if err := ensureLayout(dir); err != nil {
		t.Fatal(err)
	}
	const rounds, workers = 300, 8
	doubled := 0
	for round := 0; round < rounds; round++ {
		hash := campaign.Hash("fresh-lease-contention", round)
		var (
			start  sync.WaitGroup
			done   sync.WaitGroup
			claims atomic.Int64
		)
		start.Add(1)
		for w := 0; w < workers; w++ {
			done.Add(1)
			go func(w int) {
				defer done.Done()
				start.Wait()
				c, err := acquireLease(dir, hash, "k", fmt.Sprintf("w%d", w), time.Minute, 3)
				if err != nil {
					t.Error(err)
				}
				if c.ok {
					claims.Add(1)
				}
			}(w)
		}
		start.Done()
		done.Wait()
		switch n := claims.Load(); {
		case n == 0:
			t.Fatalf("round %d: no worker claimed the fresh point", round)
		case n > 1:
			doubled++
		}
	}
	if doubled > 0 {
		t.Errorf("%d of %d rounds handed one fresh point to more than one worker", doubled, rounds)
	}
	// No claim leaves its temp file behind.
	entries, err := os.ReadDir(filepath.Join(dir, leasesDir))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != rounds {
		t.Errorf("leases dir holds %d files, want %d leases", len(entries), rounds)
	}
}

// TestExpiredLeaseContentionNeverErrors races several in-process workers to
// steal one expired lease, round after round. Several may win the benign
// takeover race, but no worker may get an error: an error stops RunWorker.
// Stealers sharing one temp file for the rewrite lose its rename with
// "no such file or directory".
func TestExpiredLeaseContentionNeverErrors(t *testing.T) {
	dir := t.TempDir()
	if err := ensureLayout(dir); err != nil {
		t.Fatal(err)
	}
	const rounds, workers = 200, 8
	failed := 0
	for round := 0; round < rounds; round++ {
		hash := campaign.Hash("expired-lease-contention", round)
		if c, err := acquireLease(dir, hash, "k", "dead", -time.Minute, 0); err != nil || !c.ok {
			t.Fatalf("round %d: seeding the expired lease: %+v err=%v", round, c, err)
		}
		var (
			start  sync.WaitGroup
			done   sync.WaitGroup
			claims atomic.Int64
			errs   atomic.Int64
		)
		start.Add(1)
		for w := 0; w < workers; w++ {
			done.Add(1)
			go func(w int) {
				defer done.Done()
				start.Wait()
				c, err := acquireLease(dir, hash, "k", fmt.Sprintf("w%d", w), time.Minute, 0)
				if err != nil {
					errs.Add(1)
				}
				if c.ok {
					claims.Add(1)
				}
			}(w)
		}
		start.Done()
		done.Wait()
		if errs.Load() > 0 {
			failed++
		}
		if claims.Load() == 0 {
			t.Fatalf("round %d: no worker stole the expired lease", round)
		}
	}
	if failed > 0 {
		t.Errorf("%d of %d rounds returned an error to a stealing worker", failed, rounds)
	}
	entries, err := os.ReadDir(filepath.Join(dir, leasesDir))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != rounds {
		t.Errorf("leases dir holds %d files, want %d leases", len(entries), rounds)
	}
}
