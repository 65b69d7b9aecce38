package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"deepheal/internal/core"
)

func TestRunList(t *testing.T) {
	if err := run(context.Background(), []string{"list"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run(context.Background(), []string{"nope"}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunNoArgs(t *testing.T) {
	if err := run(context.Background(), nil); err == nil {
		t.Error("missing selection accepted")
	}
}

func TestRunQuietSingle(t *testing.T) {
	if err := run(context.Background(), []string{"-q", "table1"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithOutputDir(t *testing.T) {
	dir := t.TempDir()
	if err := run(context.Background(), []string{"-q", "-o", dir, "table1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "table1.txt")); err != nil {
		t.Errorf("missing table1.txt: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "table1_recovery.tsv")); err != nil {
		t.Errorf("missing table1_recovery.tsv: %v", err)
	}
}

func TestRunInterspersedFlags(t *testing.T) {
	// Flags after the experiment id used to fail with `unknown experiment "-q"`.
	if err := run(context.Background(), []string{"table1", "-q"}); err != nil {
		t.Fatalf("flag after experiment id rejected: %v", err)
	}
	dir := t.TempDir()
	if err := run(context.Background(), []string{"table1", "-q", "-o", dir, "fig4"}); err != nil {
		t.Fatalf("mixed ids and flags rejected: %v", err)
	}
	for _, name := range []string{"table1.txt", "fig4.txt"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("missing %s: %v", name, err)
		}
	}
	if err := run(context.Background(), []string{"all", "table1"}); err == nil {
		t.Error("trailing argument after \"all\" accepted")
	}
}

func TestRunParallelOutputMatchesSerial(t *testing.T) {
	ids := []string{"table1", "fig4", "fig5"}
	serialDir, parallelDir := t.TempDir(), t.TempDir()
	args := append([]string{"-q", "-o", serialDir}, ids...)
	if err := run(context.Background(), args); err != nil {
		t.Fatal(err)
	}
	args = append([]string{"-q", "-o", parallelDir, "-parallel", "0"}, ids...)
	if err := run(context.Background(), args); err != nil {
		t.Fatal(err)
	}
	assertSameOutputs(t, serialDir, parallelDir)
}

func TestRunResumeRestoresJournal(t *testing.T) {
	campDir := t.TempDir()
	if err := run(context.Background(), []string{"-q", "-resume", campDir, "table1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(campDir, "journal.jsonl")); err != nil {
		t.Fatalf("missing journal: %v", err)
	}
	if _, err := os.Stat(filepath.Join(campDir, "points.json")); err != nil {
		t.Fatalf("missing per-point stats artifact: %v", err)
	}

	// Second invocation must restore all four Table I points instead of
	// re-running them, and widening the selection only computes the new work.
	outDir := t.TempDir()
	if err := run(context.Background(), []string{"-q", "-resume", campDir, "-o", outDir, "table1", "fig4"}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(campDir, "points.json"))
	if err != nil {
		t.Fatal(err)
	}
	var stats []struct {
		Task   string `json:"task"`
		Points []struct {
			Source string `json:"source"`
		} `json:"points"`
	}
	if err := json.Unmarshal(data, &stats); err != nil {
		t.Fatal(err)
	}
	for _, task := range stats {
		if task.Task != "table1" {
			continue
		}
		for i, p := range task.Points {
			if p.Source != "journal" {
				t.Errorf("table1 point %d re-ran on resume (source %q)", i, p.Source)
			}
		}
	}
}

func TestRunSimShortLifetime(t *testing.T) {
	if err := run(context.Background(), []string{"sim", "-steps", "30", "-policy", "deep-healing", "-workers", "2", "-progress"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSimRejectsBadFlags(t *testing.T) {
	if err := run(context.Background(), []string{"sim", "-policy", "nope", "-steps", "5"}); err == nil {
		t.Error("unknown policy accepted")
	}
	if err := run(context.Background(), []string{"sim", "extra"}); err == nil {
		t.Error("positional argument accepted")
	}
	if err := run(context.Background(), []string{"sim", "-checkpoint", "x", "-checkpoint-every", "0", "-steps", "5"}); err == nil {
		t.Error("zero checkpoint interval accepted")
	}
}

func TestRunSimCheckpointResume(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "sim.ckpt")
	if err := run(context.Background(), []string{"sim", "-steps", "25", "-checkpoint", ckpt, "-checkpoint-every", "10"}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Errorf("finished run left checkpoint behind (stat err = %v)", err)
	}

	// Interrupted run: save a mid-lifetime snapshot by hand, then let the
	// CLI resume from it and finish the horizon.
	cfg := core.DefaultConfig()
	cfg.Steps = 25
	sim, err := core.NewSimulator(cfg, core.DefaultDeepHealing())
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.RunSteps(context.Background(), 10); err != nil {
		t.Fatal(err)
	}
	snap, err := sim.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckpt, snap, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"sim", "-steps", "25", "-checkpoint", ckpt}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Errorf("resumed run left checkpoint behind (stat err = %v)", err)
	}

	// A snapshot from a different system must be refused, not half-applied.
	if err := os.WriteFile(ckpt, snap, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"sim", "-steps", "30", "-checkpoint", ckpt}); err == nil {
		t.Error("mismatched checkpoint accepted")
	}
}
