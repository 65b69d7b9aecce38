package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"deepheal/internal/bench"
	"deepheal/internal/obs"
	"deepheal/internal/obsflag"
)

// runBench executes the tracked benchmark set and writes the trajectory
// report. With -baseline it also gates: any tracked benchmark that slowed
// past -factor fails the command, which is how CI pins the perf work in this
// repo to the committed BENCH_PR9.json. The default report name is not a
// committed file, so a local run cannot overwrite a baseline.
func runBench(args []string) error {
	fs := flag.NewFlagSet("deepheal bench", flag.ContinueOnError)
	out := fs.String("o", "bench.json", "write the JSON report here (empty = don't write)")
	baseline := fs.String("baseline", "", "compare against this JSON report and fail on regressions")
	factor := fs.Float64("factor", 2, "allowed ns/op growth factor vs the baseline")
	minNs := fs.Float64("min-ns", bench.MinGateNs, "skip gating benchmarks with baselines under this many ns/op (timer noise)")
	pattern := fs.String("bench", ".", "benchmark name pattern (go test -bench)")
	benchtime := fs.String("benchtime", "1000x", "per-benchmark time or iteration count (go test -benchtime)")
	verbose := fs.Bool("v", false, "stream raw go test output while running")
	strict := fs.Bool("strict", false, "fail when baseline benchmarks are missing from the current run")
	metricsOut := fs.String("metrics-out", "", "write a JSON snapshot of harness metrics here")
	// bench does not profile in-process: the paths are forwarded to the
	// `go test` child (which requires exactly one package).
	var prof obsflag.Profile
	prof.Register(fs)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: deepheal bench [flags] [package...]\n\n"+
			"Runs the tracked benchmark set (default: the numerical-kernel and\n"+
			"simulator packages) and writes a machine-readable trajectory report.\n"+
			"Run it from the repository root: it shells out to `go test`.\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}

	var sink io.Writer
	if *verbose {
		sink = os.Stderr
	}
	var reg *obs.Registry
	if *metricsOut != "" {
		reg = obs.NewRegistry()
	}
	rep, err := bench.Run(bench.Options{
		Packages:   fs.Args(),
		Pattern:    *pattern,
		Benchtime:  *benchtime,
		Stdout:     sink,
		CPUProfile: prof.CPU,
		MemProfile: prof.Mem,
		Metrics:    reg,
	})
	if err != nil {
		return err
	}
	if len(rep.Results) == 0 {
		return fmt.Errorf("bench: no benchmarks matched %q", *pattern)
	}
	for _, r := range rep.Results {
		fmt.Printf("%-60s %14.1f ns/op %10d B/op %8d allocs/op\n", r.Key(), r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
	}
	if *out != "" {
		if err := rep.WriteFile(*out); err != nil {
			return err
		}
		fmt.Printf("wrote %d benchmarks to %s\n", len(rep.Results), *out)
	}

	if *baseline == "" {
		return writeBenchMetrics(reg, *metricsOut)
	}
	base, err := bench.ReadFile(*baseline)
	if err != nil {
		return err
	}
	regs, stats := bench.Compare(base, rep, *factor, *minNs)
	fmt.Printf("compared %d benchmarks against %s (factor %.2gx, floor %.0f ns; %d below floor, not gated)\n",
		stats.Compared, *baseline, *factor, *minNs, stats.SkippedBelowFloor)
	for _, key := range stats.Missing {
		fmt.Fprintf(os.Stderr, "WARNING: baseline benchmark %s missing from current run\n", key)
	}
	if reg != nil {
		reg.Counter("deepheal_bench_compared_total", "baseline benchmarks matched in the current run").Add(uint64(stats.Compared))
		reg.Counter("deepheal_bench_below_floor_total", "matched benchmarks under the noise floor (not gated)").Add(uint64(stats.SkippedBelowFloor))
		reg.Counter("deepheal_bench_missing_total", "baseline benchmarks missing from the current run").Add(uint64(len(stats.Missing)))
		reg.Counter("deepheal_bench_regressions_total", "benchmarks past the allowed growth factor").Add(uint64(len(regs)))
	}
	if err := writeBenchMetrics(reg, *metricsOut); err != nil {
		return err
	}
	for _, r := range regs {
		fmt.Fprintln(os.Stderr, "REGRESSION", r)
	}
	if *strict && len(stats.Missing) > 0 {
		return fmt.Errorf("bench: %d baseline benchmark(s) missing from current run (-strict)", len(stats.Missing))
	}
	if len(regs) > 0 {
		return fmt.Errorf("bench: %d benchmark(s) regressed more than %.2gx", len(regs), *factor)
	}
	return nil
}

// writeBenchMetrics dumps the harness registry as a JSON snapshot. A nil
// registry (no -metrics-out) is a no-op.
func writeBenchMetrics(reg *obs.Registry, path string) error {
	if reg == nil || path == "" {
		return nil
	}
	snap := reg.Snapshot()
	if err := snap.WriteFile(path); err != nil {
		return err
	}
	fmt.Printf("wrote harness metrics to %s\n", path)
	return nil
}
