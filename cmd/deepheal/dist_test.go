package main

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"deepheal/internal/campaign"
	"deepheal/internal/campaign/dist"
	"deepheal/internal/obs"
)

// readOutputs collects an -o artifact directory as name → contents.
func readOutputs(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]string, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(data)
	}
	return files
}

// assertSameOutputs compares another run's artifact directory with the
// serial one byte for byte. Stdout carries wall-clock timings, so the -o
// files are the byte-identical surface.
func assertSameOutputs(t *testing.T, serialDir, otherDir string) {
	t.Helper()
	serial, other := readOutputs(t, serialDir), readOutputs(t, otherDir)
	if len(serial) == 0 || len(serial) != len(other) {
		t.Fatalf("file sets differ: serial %d, other %d", len(serial), len(other))
	}
	for name, want := range serial {
		if got, ok := other[name]; !ok {
			t.Errorf("run missing %s", name)
		} else if got != want {
			t.Errorf("%s: output differs from serial", name)
		}
	}
}

// serialIDs is the selection the coordinate tests distribute; serialOutputs
// holds its serial -o artifacts.
var serialIDs = []string{"table1", "fig4"}

var serialRun struct {
	once sync.Once
	dir  string
	err  error
}

// serialOutputs returns the directory of a serial `-q -o dir table1 fig4`
// run, made once per test binary; TestMain removes it.
func serialOutputs(t *testing.T) string {
	t.Helper()
	serialRun.once.Do(func() {
		if serialRun.dir, serialRun.err = os.MkdirTemp("", "deepheal-serial-"); serialRun.err == nil {
			serialRun.err = run(context.Background(), append([]string{"-q", "-o", serialRun.dir}, serialIDs...))
		}
	})
	if serialRun.err != nil {
		t.Fatalf("serial reference run: %v", serialRun.err)
	}
	return serialRun.dir
}

func TestMain(m *testing.M) {
	code := m.Run()
	if serialRun.dir != "" {
		os.RemoveAll(serialRun.dir)
	}
	os.Exit(code)
}

func TestCoordinateMatchesSerial(t *testing.T) {
	ids := serialIDs
	serialDir, distDir := serialOutputs(t), t.TempDir()
	campDir := filepath.Join(t.TempDir(), "camp")

	args := append([]string{"coordinate", "-dir", campDir, "-local-workers", "2", "-q", "-o", distDir}, ids...)
	if err := run(context.Background(), args); err != nil {
		t.Fatal(err)
	}

	assertSameOutputs(t, serialDir, distDir)

	// The campaign dir must hold the distributed artifacts: the manifest,
	// one shard per local worker, and the merged canonical journal.
	if _, err := os.Stat(filepath.Join(campDir, "manifest.json")); err != nil {
		t.Errorf("missing manifest: %v", err)
	}
	shards, err := filepath.Glob(filepath.Join(campDir, "shards", "*.jsonl"))
	if err != nil || len(shards) != 2 {
		t.Errorf("want 2 worker shards, got %d (err %v)", len(shards), err)
	}
	if _, err := os.Stat(filepath.Join(campDir, "journal.jsonl")); err != nil {
		t.Errorf("missing merged journal: %v", err)
	}
}

func TestCoordinateSurvivesWorkerDeath(t *testing.T) {
	ids := serialIDs
	serialDir, distDir := serialOutputs(t), t.TempDir()
	campDir := filepath.Join(t.TempDir(), "camp")

	// One of the two local workers dies (injected) after its second computed
	// point, abandoning an unrecorded result and a live lease. The survivor
	// steals the lease once the short TTL expires and the merged output must
	// still be byte-identical.
	args := append([]string{
		"coordinate", "-dir", campDir, "-local-workers", "2",
		"-lease-ttl", "500ms", "-poll", "50ms",
		"-faults", "worker-die:occ=2", "-fault-seed", "7",
		"-q", "-o", distDir,
	}, ids...)
	if err := run(context.Background(), args); err != nil {
		t.Fatal(err)
	}

	assertSameOutputs(t, serialDir, distDir)
}

func TestCoordinateResumeSkipsCompletedPoints(t *testing.T) {
	// A second coordinate over the same dir must restore everything from the
	// merged journal: publish finds the same hashes, workers see every point
	// already complete, and assembly restores instead of recomputing.
	campDir := filepath.Join(t.TempDir(), "camp")
	if err := run(context.Background(), []string{"coordinate", "-dir", campDir, "-q", "table1"}); err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(filepath.Join(campDir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"coordinate", "-dir", campDir, "-q", "table1"}); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(filepath.Join(campDir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != before.Size() {
		t.Errorf("re-run grew the canonical journal: %d → %d bytes", before.Size(), after.Size())
	}
}

func TestDistVerbValidation(t *testing.T) {
	if err := run(context.Background(), []string{"coordinate"}); err == nil {
		t.Error("coordinate without -dir accepted")
	}
	if err := run(context.Background(), []string{"worker"}); err == nil {
		t.Error("worker without -dir accepted")
	}
	if err := run(context.Background(), []string{"worker", "-dir", t.TempDir(), "table1"}); err == nil {
		t.Error("worker with positional experiment accepted")
	}
	if err := run(context.Background(), []string{"coordinate", "-dir", filepath.Join(t.TempDir(), "c"), "nope"}); err == nil {
		t.Error("coordinate with unknown experiment accepted")
	}
}

// TestCoordinateKillAndResume kills the coordinator mid-drain with the
// injected fault, asserts the dedicated exit classification, then resumes
// the same directory: the second coordinator must restore every banked
// point (resume metric), execute only the remainder, and emit output
// byte-identical to a serial run.
func TestCoordinateKillAndResume(t *testing.T) {
	ids := serialIDs
	serialDir, distDir := serialOutputs(t), t.TempDir()
	campDir := filepath.Join(t.TempDir(), "camp")

	// First life: the coordinator dies on the second drain progress change —
	// after at least one point is banked in a shard, before the merge.
	args := append([]string{
		"coordinate", "-dir", campDir, "-local-workers", "2", "-poll", "20ms",
		"-faults", "coordinator-die:occ=2", "-q", "-o", t.TempDir(),
	}, ids...)
	err := run(context.Background(), args)
	if !errors.Is(err, dist.ErrCoordinatorDied) {
		t.Fatalf("killed coordinate returned %v, want ErrCoordinatorDied", err)
	}
	if got := exitCode(err); got != exitCoordinatorDied {
		t.Fatalf("exit code %d, want %d", got, exitCoordinatorDied)
	}
	if _, err := os.Stat(filepath.Join(campDir, "journal.jsonl")); !os.IsNotExist(err) {
		t.Fatalf("crashed coordinator must not have merged: journal stat err=%v", err)
	}
	shards, err := filepath.Glob(filepath.Join(campDir, "shards", "*.jsonl"))
	if err != nil || len(shards) == 0 {
		t.Fatalf("no shards banked before the crash (err %v)", err)
	}

	// Second life: -resume reloads the manifest and finishes the job.
	metricsOut := filepath.Join(t.TempDir(), "metrics.json")
	args = append([]string{
		"coordinate", "-dir", campDir, "-resume", "-local-workers", "2",
		"-poll", "20ms", "-metrics-out", metricsOut, "-q", "-o", distDir,
	}, ids...)
	if err := run(context.Background(), args); err != nil {
		t.Fatal(err)
	}
	assertSameOutputs(t, serialDir, distDir)

	m, err := dist.LoadManifest(campDir)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := obs.ReadSnapshotFile(metricsOut)
	if err != nil {
		t.Fatal(err)
	}
	restored := snap.Counters["deepheal_dist_resume_restored_total"]
	computed := snap.Counters["deepheal_dist_points_completed_total"]
	if restored == 0 {
		t.Error("resume restored no points; the crash-resume path never engaged")
	}
	if computed >= uint64(len(m.Points)) {
		t.Errorf("resumed run computed %d of %d points — banked work was re-executed", computed, len(m.Points))
	}
	if restored+computed < uint64(len(m.Points)) {
		t.Errorf("restored %d + computed %d < %d manifest points", restored, computed, len(m.Points))
	}
}

// TestCoordinatePoisonPointQuarantine targets one point with a worker-die
// fault: every worker that leases table1/no3 dies. With -respawn-local the
// single local worker keeps coming back, burns the 2-attempt budget, and
// the third incarnation quarantines the point. The run must end with the
// quarantine exit semantics, name the point on stderr (checked via the
// error), and still produce byte-identical output for the healthy
// experiment.
func TestCoordinatePoisonPointQuarantine(t *testing.T) {
	ids := serialIDs
	serialDir, distDir := serialOutputs(t), t.TempDir()
	campDir := filepath.Join(t.TempDir(), "camp")

	args := append([]string{
		"coordinate", "-dir", campDir, "-local-workers", "1", "-respawn-local",
		"-max-attempts", "2", "-lease-ttl", "200ms", "-poll", "20ms",
		"-faults", "worker-die:key=table1/no3",
		"-q", "-o", distDir,
	}, ids...)
	err := run(context.Background(), args)
	if !errors.Is(err, campaign.ErrQuarantined) {
		t.Fatalf("poisoned coordinate returned %v, want ErrQuarantined", err)
	}
	if got := exitCode(err); got != exitQuarantine {
		t.Fatalf("exit code %d, want %d", got, exitQuarantine)
	}

	// The fleet recorded the quarantine with its attempt history.
	m, err := dist.LoadManifest(campDir)
	if err != nil {
		t.Fatal(err)
	}
	poisoned, err := dist.QuarantinedFailures(campDir, m)
	if err != nil || len(poisoned) != 1 {
		t.Fatalf("QuarantinedFailures = %v (err %v), want exactly one", poisoned, err)
	}

	// The healthy experiment's artifacts are byte-identical to serial; the
	// poisoned experiment wrote nothing (its task failed assembly).
	serial, dst := readOutputs(t, serialDir), readOutputs(t, distDir)
	for name, want := range serial {
		if strings.HasPrefix(name, "table1") {
			if _, ok := dst[name]; ok {
				t.Errorf("poisoned experiment still wrote %s", name)
			}
			continue
		}
		if got, ok := dst[name]; !ok || got != want {
			t.Errorf("healthy artifact %s missing or differs (present=%v)", name, ok)
		}
	}
}
