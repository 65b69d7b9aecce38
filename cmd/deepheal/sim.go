package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"deepheal/internal/core"
	"deepheal/internal/engine"
	"deepheal/internal/faultinject"
	"deepheal/internal/obs"
	"deepheal/internal/obsflag"
)

// runSim executes a single engine-driven lifetime simulation with optional
// progress reporting and checkpoint/resume.
func runSim(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("deepheal sim", flag.ContinueOnError)
	policy := fs.String("policy", "deep-healing", "scheduling policy to run")
	rows := fs.Int("rows", 0, "die rows (0 = default config)")
	cols := fs.Int("cols", 0, "die cols (0 = default config)")
	steps := fs.Int("steps", 0, "simulated steps (0 = default config)")
	workers := fs.Int("workers", 0, "wearout-stage worker bound (0 = GOMAXPROCS, 1 = serial)")
	progress := fs.Bool("progress", false, "print step progress while running")
	checkpoint := fs.String("checkpoint", "", "checkpoint file: resume from it if present, save into it while running")
	checkpointEvery := fs.Int("checkpoint-every", 100, "steps between checkpoint saves (with -checkpoint)")
	var metrics obsflag.Metrics
	metrics.Register(fs)
	var prof obsflag.Profile
	prof.Register(fs)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: deepheal sim [flags]\n\npolicies:\n")
		for _, name := range core.PolicyNames() {
			fmt.Fprintf(fs.Output(), "  %s\n", name)
		}
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("sim: unexpected argument %q", fs.Arg(0))
	}
	pol, err := core.NewPolicy(*policy)
	if err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if *checkpoint != "" && *checkpointEvery < 1 {
		return fmt.Errorf("sim: -checkpoint-every must be at least 1")
	}
	stopProfiles, err := prof.Start()
	if err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	defer stopProfiles()

	// Metrics come on before the simulator is built so every kernel build,
	// CG solve and step stage of this run is counted from step zero.
	var reg *obs.Registry
	if metrics.Enabled() {
		reg = obs.NewRegistry()
	}
	core.EnableMetrics(reg)
	defer core.EnableMetrics(nil)
	finishMetrics, err := metrics.Start(reg)
	if err != nil {
		return fmt.Errorf("sim: %w", err)
	}

	cfg := core.DefaultConfig()
	if *rows > 0 || *cols > 0 {
		r, c := cfg.Rows, cfg.Cols
		if *rows > 0 {
			r = *rows
		}
		if *cols > 0 {
			c = *cols
		}
		cfg = core.ConfigForGrid(r, c)
	}
	if *steps > 0 {
		cfg.Steps = *steps
	}

	sim, err := core.NewSimulator(cfg, pol, core.WithWorkers(*workers))
	if err != nil {
		return err
	}
	if *checkpoint != "" {
		data, err := os.ReadFile(*checkpoint)
		switch {
		case err == nil:
			if err := sim.Restore(data); err != nil {
				return fmt.Errorf("sim: resume from %s: %w", *checkpoint, err)
			}
			fmt.Printf("resumed from %s at step %d/%d\n", *checkpoint, sim.Step(), cfg.Steps)
		case errors.Is(err, os.ErrNotExist):
			// First run: the file appears once the first checkpoint is saved.
		default:
			return err
		}
	}

	// Step in chunks that end at every checkpoint save (each -checkpoint-every
	// steps of this run) and, with -progress, at every tenth step.
	start, first := time.Now(), sim.Step()
	for sim.Step() < cfg.Steps {
		n := cfg.Steps - sim.Step()
		if *checkpoint != "" {
			n = min(n, *checkpointEvery-(sim.Step()-first)%*checkpointEvery)
		}
		if *progress {
			n = min(n, 10-sim.Step()%10)
		}
		if err := sim.RunSteps(ctx, n); err != nil {
			return err
		}
		if step := sim.Step(); *progress && (step%10 == 0 || step == cfg.Steps) {
			fmt.Fprintf(os.Stderr, "\rstep %d/%d", step, cfg.Steps)
			if step == cfg.Steps {
				fmt.Fprintln(os.Stderr)
			}
		}
		if *checkpoint != "" && (sim.Step()-first)%*checkpointEvery == 0 && sim.Step() < cfg.Steps {
			if err := saveCheckpoint(*checkpoint, sim); err != nil {
				return err
			}
		}
	}
	rep, err := sim.RunContext(ctx)
	if err != nil {
		return err
	}
	if err := finishMetrics(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if *checkpoint != "" {
		// The horizon is done; a stale checkpoint would only re-run the end.
		if err := os.Remove(*checkpoint); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
	}

	fmt.Printf("policy %s: %d steps on a %dx%d die in %.1fs\n",
		rep.Policy, len(rep.Series), cfg.Rows, cfg.Cols, time.Since(start).Seconds())
	fmt.Printf("  guardband       %6.2f %%\n", rep.GuardbandFrac*100)
	fmt.Printf("  final shift     %6.1f mV\n", rep.FinalShiftV*1000)
	fmt.Printf("  availability    %6.2f %%\n", rep.Availability*100)
	fmt.Printf("  recovery spent  %6.2f %% of core-steps\n", rep.RecoveryOverhead*100)
	if rep.EMNucleated {
		fmt.Printf("  EM: void nucleated")
		if rep.EMFailedStep >= 0 {
			fmt.Printf(", grid segment broke at step %d", rep.EMFailedStep)
		}
		fmt.Println()
	} else {
		fmt.Println("  EM: no void nucleation")
	}
	fmt.Println("  stage wall time:")
	printStageTimes(sim.StageTimes())
	return nil
}

// saveCheckpoint writes the simulator snapshot atomically (write + rename) so
// a crash mid-save never corrupts the resume point.
func saveCheckpoint(path string, sim *core.Simulator) error {
	data, err := sim.Snapshot()
	if err != nil {
		return err
	}
	if faultinject.Hit(faultinject.SiteCheckpointTruncate, path) {
		data = data[:len(data)/2] // simulate power loss mid-write
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func printStageTimes(times map[engine.StageName]time.Duration) {
	order := []engine.StageName{
		engine.StagePlan, engine.StageElectrical, engine.StageThermal,
		engine.StageWearout, engine.StageSense, engine.StageRecord,
	}
	var total time.Duration
	for _, d := range times {
		total += d
	}
	for _, name := range order {
		d, ok := times[name]
		if !ok {
			continue
		}
		frac := 0.0
		if total > 0 {
			frac = float64(d) / float64(total) * 100
		}
		fmt.Printf("    %-10s %10s  %5.1f %%\n", name, d.Round(time.Microsecond), frac)
	}
}
