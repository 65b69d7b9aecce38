// Command deepheal regenerates the paper's tables and figures from the
// calibrated simulators.
//
// Usage:
//
//	deepheal list                  # show available experiment ids
//	deepheal all                   # run every experiment
//	deepheal table1 fig5 ...       # run specific experiments
//	deepheal all -parallel 4       # fan experiment points across 4 workers
//	deepheal all -resume out/camp  # checkpoint/resume at point granularity
//	deepheal sim [flags]           # run one policy simulation directly
//	deepheal serve [flags]         # host the chip-fleet HTTP/JSON service
//	deepheal coordinate [flags]    # publish a distributed work queue and assemble it
//	deepheal worker [flags]        # join a distributed campaign as one worker
//	deepheal all -timing           # print the scheduling profile after the run
//	deepheal timing points.json    # profile an already-written campaign stats file
//
// Experiments execute on the campaign engine: every experiment declares its
// independent simulation points, the engine fans them across a bounded
// worker pool (-parallel), deduplicates identical points across experiments
// by content hash, and — with -resume — journals completed points so a
// killed run picks up where it left off. Output is byte-identical for every
// worker count. Flags may appear before or after the experiment ids.
//
// SIGINT/SIGTERM cancel the campaign: experiments that already completed
// have had their output printed and written (-o), the journal keeps every
// completed point, and the process exits non-zero.
//
// Each experiment prints its paper-style table or series followed by a
// summary comparing the simulated result against the paper's anchors.
// The sim subcommand drives a single engine simulation with progress
// reporting and checkpoint/resume; see `deepheal sim -h`. The serve
// subcommand hosts the fleet service (see `deepheal serve -h`): on SIGTERM
// it drains HTTP, writes the fleet checkpoint and exits 0. The benchmark
// gate is not a verb: .github/bench-ab.sh compares the tracked Go
// benchmarks against a base commit on one machine.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"deepheal/internal/campaign"
	"deepheal/internal/campaign/dist"
	"deepheal/internal/core"
	"deepheal/internal/experiments"
	"deepheal/internal/obs"
	"deepheal/internal/obsflag"
)

// Exit codes: 0 success, 1 generic failure, 3 campaign completed but
// quarantined points, 8 coordinator killed by an injected fault (the
// campaign directory stays resumable), 130 forced exit on a second
// interrupt. The worker verb additionally exits 7 on an injected worker
// death (see dist.go).
const (
	exitOK              = 0
	exitErr             = 1
	exitQuarantine      = 3
	exitCoordinatorDied = 8
	exitInterrupt       = 130
)

func main() {
	ctx, stop := withSignalHandling(context.Background(), os.Exit)
	err := run(ctx, os.Args[1:])
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "deepheal:", err)
		os.Exit(exitCode(err))
	}
}

// exitCode maps a run error onto the process exit code.
func exitCode(err error) int {
	switch {
	case err == nil:
		return exitOK
	case errors.Is(err, campaign.ErrQuarantined):
		return exitQuarantine
	case errors.Is(err, dist.ErrCoordinatorDied):
		return exitCoordinatorDied
	default:
		return exitErr
	}
}

// withSignalHandling cancels the returned context on the first SIGINT or
// SIGTERM — the graceful path: in-flight points finish, the journal keeps
// every completed point — and calls exit(130) on a second signal, for when
// the graceful shutdown is itself wedged. The returned stop function
// releases the signal handler and the watcher goroutine.
func withSignalHandling(parent context.Context, exit func(int)) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(parent)
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	quit := make(chan struct{})
	var once sync.Once
	go func() {
		select {
		case <-sigs:
			fmt.Fprintln(os.Stderr, "deepheal: interrupted, finishing in-flight work (interrupt again to force exit)")
			cancel()
		case <-quit:
			return
		}
		select {
		case <-sigs:
			fmt.Fprintln(os.Stderr, "deepheal: second interrupt, exiting immediately")
			exit(exitInterrupt)
		case <-quit:
		}
	}()
	stop := func() {
		signal.Stop(sigs)
		once.Do(func() { close(quit) })
		cancel()
	}
	return ctx, stop
}

// parseInterspersed parses fs flags wherever they appear among args,
// collecting the positional arguments — so `deepheal all -q` works like
// `deepheal -q all`. The sim, serve, worker and coordinate verbs keep their
// remaining arguments raw: they own their own flag sets.
func parseInterspersed(fs *flag.FlagSet, args []string) ([]string, error) {
	var pos []string
	for {
		if err := fs.Parse(args); err != nil {
			return nil, err
		}
		args = fs.Args()
		if len(args) == 0 {
			return pos, nil
		}
		pos = append(pos, args[0])
		args = args[1:]
		if len(pos) == 1 {
			switch pos[0] {
			case "sim", "serve", "worker", "coordinate":
				return append(pos, args...), nil
			}
		}
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("deepheal", flag.ContinueOnError)
	quiet := fs.Bool("q", false, "print only experiment summaries, not full series")
	outDir := fs.String("o", "", "also write <id>.txt (and <id>_<series>.tsv where available) into this directory")
	parallel := fs.Int("parallel", 1, "campaign worker pool size (0 = all CPUs); output is byte-identical for every setting")
	resume := fs.String("resume", "", "campaign directory: restore completed points from its journal, append new ones")
	faults := fs.String("faults", "", "fault-injection spec for chaos runs, e.g. 'point-error:p=0.2;worker-panic:occ=2' (see internal/faultinject)")
	faultSeed := fs.Uint64("fault-seed", 1, "seed for the deterministic fault injector (-faults)")
	retries := fs.Int("retries", 1, "attempts per campaign point before it is quarantined")
	pointTimeout := fs.Duration("point-timeout", 0, "deadline per point attempt; a miss is retried, then quarantined (0 = none)")
	stallTimeout := fs.Duration("stall-timeout", 0, "log points still running after this long (0 = off)")
	timing := fs.Bool("timing", false, "after the campaign, print the scheduling profile (slowest points, LPT critical path) to stderr")
	var metrics obsflag.Metrics
	metrics.Register(fs)
	var prof obsflag.Profile
	prof.Register(fs)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: deepheal [-q] [-o dir] [-parallel n] [-resume dir] [-faults spec] list | all | sim | serve | coordinate | worker | timing <points.json> | <experiment>...\n\nexperiments:\n")
		for _, id := range experiments.SortedIDs() {
			fmt.Fprintf(fs.Output(), "  %s\n", id)
		}
		fs.PrintDefaults()
	}
	pos, err := parseInterspersed(fs, args)
	if err != nil {
		return err
	}
	if len(pos) == 0 {
		fs.Usage()
		return fmt.Errorf("no experiment selected")
	}

	disarm, err := armFaults(*faults, *faultSeed)
	if err != nil {
		return err
	}
	defer disarm()

	var ids []string
	switch pos[0] {
	case "sim":
		return runSim(ctx, pos[1:])
	case "serve":
		return runServe(ctx, pos[1:])
	case "worker":
		return runWorkerCmd(ctx, pos[1:])
	case "coordinate":
		return runCoordinate(ctx, pos[1:])
	case "list":
		for _, id := range experiments.SortedIDs() {
			fmt.Println(id)
		}
		return nil
	case "timing":
		if len(pos) != 2 {
			return fmt.Errorf("usage: deepheal timing <points.json>")
		}
		stats, err := campaign.ReadStats(pos[1])
		if err != nil {
			return err
		}
		fmt.Print(campaign.TimingReport(stats, 10, []int{1, 2, 4, 8}))
		return nil
	case "all":
		if len(pos) > 1 {
			return fmt.Errorf("unexpected argument %q after \"all\"", pos[1])
		}
		ids = nil // every registered experiment
	default:
		ids = pos
	}
	stopProfiles, err := prof.Start()
	if err != nil {
		return err
	}
	defer stopProfiles()
	var reg *obs.Registry
	if metrics.Enabled() {
		reg = obs.NewRegistry()
	}
	core.EnableMetrics(reg)
	defer core.EnableMetrics(nil)
	campaign.EnableMetrics(reg)
	defer campaign.EnableMetrics(nil)
	finishMetrics, err := metrics.Start(reg)
	if err != nil {
		return err
	}
	if err := runCampaign(ctx, ids, campaignConfig{
		Quiet:        *quiet,
		OutDir:       *outDir,
		Workers:      *parallel,
		ResumeDir:    *resume,
		Retries:      *retries,
		PointTimeout: *pointTimeout,
		StallTimeout: *stallTimeout,
		Timing:       *timing,
	}); err != nil {
		finishMetrics()
		return err
	}
	return finishMetrics()
}

// campaignConfig bundles the CLI knobs that shape a campaign run.
type campaignConfig struct {
	Quiet        bool
	OutDir       string
	Workers      int
	ResumeDir    string
	Retries      int
	PointTimeout time.Duration
	StallTimeout time.Duration
	Timing       bool
	// Quarantined pre-quarantines points by content hash (message per
	// hash); the coordinator feeds it with the fleet's poison-point markers.
	Quarantined map[string]string
}

// runCampaign executes the selected experiments on the campaign engine,
// printing and flushing each experiment's output as soon as it (and its
// predecessors, to keep registry order) completes. Experiments whose points
// were quarantined are reported on stderr and turn the overall run into an
// ErrQuarantined failure — after every healthy experiment has still been
// printed and written.
func runCampaign(ctx context.Context, ids []string, cfg campaignConfig) error {
	tasks, err := experiments.Plans(ids...)
	if err != nil {
		return err
	}
	if cfg.OutDir != "" {
		if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
			return err
		}
	}

	opts := campaign.Options{
		Workers:      cfg.Workers,
		PointTimeout: cfg.PointTimeout,
		StallTimeout: cfg.StallTimeout,
		Quarantined:  cfg.Quarantined,
		Retry: campaign.RetryPolicy{
			MaxAttempts: cfg.Retries,
			BaseDelay:   100 * time.Millisecond,
			MaxDelay:    2 * time.Second,
		},
		OnStall: func(task, key string, running time.Duration) {
			fmt.Fprintf(os.Stderr, "campaign: point %s (%s) still running after %s\n", key, task, running.Round(time.Second))
		},
	}
	if cfg.ResumeDir != "" {
		journal, err := campaign.OpenJournal(cfg.ResumeDir)
		if err != nil {
			return err
		}
		defer journal.Close()
		if n := journal.Corrupted(); n > 0 {
			fmt.Fprintf(os.Stderr, "journal: skipped %d corrupted record(s); those points will be recomputed\n", n)
		}
		if n := journal.Restorable(); n > 0 {
			fmt.Fprintf(os.Stderr, "resuming: %d completed points in %s\n", n, cfg.ResumeDir)
		}
		opts.Journal = journal
	}

	var outErr error
	opts.OnTask = func(o campaign.Outcome) {
		if o.Err != nil {
			fmt.Fprintf(os.Stderr, "campaign: experiment %s failed: %v\n", o.Task, o.Err)
			return
		}
		res, ok := o.Value.(experiments.Result)
		if !ok {
			return
		}
		fmt.Printf("=== %s — %s (%.1fs)\n\n", res.ID(), res.Title(), o.Elapsed.Seconds())
		if !cfg.Quiet {
			fmt.Println(res.Format())
		}
		if cfg.OutDir != "" && outErr == nil {
			if err := writeOutputs(cfg.OutDir, res); err != nil {
				outErr = fmt.Errorf("%s: %w", res.ID(), err)
			}
		}
	}

	outcomes, runErr := campaign.Run(ctx, tasks, opts)
	if cfg.ResumeDir != "" && len(outcomes) > 0 {
		if err := campaign.WriteStats(filepath.Join(cfg.ResumeDir, "points.json"), outcomes); err != nil && runErr == nil {
			runErr = err
		}
	}
	if cfg.Timing && len(outcomes) > 0 {
		// Stderr, like the campaign summary line: experiment stdout stays
		// byte-identical whether or not the profile is requested.
		fmt.Fprint(os.Stderr, campaign.TimingReport(campaign.StatsFromOutcomes(outcomes), 10, []int{1, 2, 4, 8}))
	}
	if runErr != nil && !errors.Is(runErr, campaign.ErrQuarantined) {
		return runErr
	}
	if quarantined := campaign.QuarantinedPoints(outcomes); len(quarantined) > 0 {
		for _, p := range quarantined {
			if p.Source == "quarantined" {
				// Pre-quarantined by the distributed fleet, never executed
				// here: the marker's cause is the whole story.
				fmt.Fprintf(os.Stderr, "campaign: quarantined %s: %s\n", p.Key, p.Err)
				continue
			}
			fmt.Fprintf(os.Stderr, "campaign: quarantined %s after %d attempt(s)\n", p.Key, p.Attempts)
		}
		return fmt.Errorf("%d point(s) %w", len(quarantined), campaign.ErrQuarantined)
	}
	if runErr != nil {
		return runErr
	}
	if outErr != nil {
		return outErr
	}

	var ran, memoised, restored int
	for _, o := range outcomes {
		for _, p := range o.Points {
			switch p.Source {
			case "run":
				ran++
			case "memo":
				memoised++
			case "journal":
				restored++
			}
		}
	}
	fmt.Fprintf(os.Stderr, "campaign: %d points computed, %d memoised, %d restored from journal\n",
		ran, memoised, restored)
	return nil
}

// writeOutputs saves the formatted result and any machine-readable series.
func writeOutputs(dir string, res experiments.Result) error {
	txt := fmt.Sprintf("%s — %s\n\n%s", res.ID(), res.Title(), res.Format())
	if err := os.WriteFile(filepath.Join(dir, res.ID()+".txt"), []byte(txt), 0o644); err != nil {
		return err
	}
	exp, ok := res.(experiments.TSVExporter)
	if !ok {
		return nil
	}
	for name, content := range exp.TSV() {
		path := filepath.Join(dir, fmt.Sprintf("%s_%s.tsv", res.ID(), name))
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			return err
		}
	}
	return nil
}
