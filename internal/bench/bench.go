// Package bench runs the repository's Go benchmarks and turns their output
// into a machine-readable trajectory: one JSON report per run, comparable
// across commits. The committed baseline (BENCH_PR9.json at the repo root)
// plus the CI regression gate keep the perf work in this tree honest — a
// change that slows a tracked benchmark past the allowed factor fails the
// build instead of silently rotting.
package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"deepheal/internal/obs"
)

// Result is one benchmark measurement, as parsed from `go test -bench`
// output. Custom per-benchmark metrics (b.ReportMetric) are ignored; only
// the three universal series are tracked.
type Result struct {
	Package     string  `json:"package"`
	Name        string  `json:"name"` // appended GOMAXPROCS suffix stripped (see Run)
	Iters       int64   `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Key identifies a benchmark across reports.
func (r Result) Key() string { return r.Package + "." + r.Name }

// Report is one full benchmark run: environment stamp plus every parsed
// measurement, sorted by key for stable diffs.
type Report struct {
	GoVersion string   `json:"go_version"`
	GOOS      string   `json:"goos"`
	GOARCH    string   `json:"goarch"`
	Benchtime string   `json:"benchtime"`
	Results   []Result `json:"benchmarks"`
}

// DefaultPackages is the tracked benchmark set: the hot numerical kernels
// and the system simulator. The root-level experiment benchmarks (full
// figure/table trajectories) are deliberately excluded — they measure
// science, not code, and take minutes at meaningful benchtimes.
func DefaultPackages() []string {
	return []string{
		"./internal/bti",
		"./internal/em",
		"./internal/circuit",
		"./internal/mathx",
		"./internal/pdn",
		"./internal/thermal",
		"./internal/core",
		"./internal/fleet",
		"./internal/scenario",
	}
}

// Options configures a benchmark run.
type Options struct {
	Packages  []string  // go package patterns; nil = DefaultPackages
	Pattern   string    // -bench regexp; "" = "."
	Benchtime string    // -benchtime value; "" = "1000x"
	Stdout    io.Writer // raw `go test` output is streamed here when non-nil
	// CPUProfile / MemProfile are passed through to `go test`. Profiles are
	// written per package, so setting either requires exactly one package.
	CPUProfile string
	MemProfile string
	// Metrics, when non-nil, records harness telemetry (packages run,
	// results parsed, per-package wall time) into the registry — the bench
	// run's machine-readable manifest alongside the report.
	Metrics *obs.Registry
}

// Run executes `go test -bench` over the configured packages and parses the
// results into a Report. The go tool must be on PATH.
func Run(opt Options) (*Report, error) {
	pkgs := opt.Packages
	if len(pkgs) == 0 {
		pkgs = DefaultPackages()
	}
	pattern := opt.Pattern
	if pattern == "" {
		pattern = "."
	}
	benchtime := opt.Benchtime
	if benchtime == "" {
		benchtime = "1000x"
	}
	if (opt.CPUProfile != "" || opt.MemProfile != "") && len(pkgs) != 1 {
		return nil, fmt.Errorf("bench: profiling writes one file per package; select exactly one package (have %d)", len(pkgs))
	}

	rep := &Report{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Benchtime: benchtime,
	}
	// The `go test` child inherits this process's environment, so its
	// effective GOMAXPROCS — the -N it appends to benchmark names — matches
	// ours. At GOMAXPROCS=1 the testing package appends no suffix at all,
	// which is why stripping must be driven by the actual value instead of
	// pattern-matching any trailing digits (see trimProcs).
	procs := runtime.GOMAXPROCS(0)
	metPackages := opt.Metrics.Counter("deepheal_bench_packages_total", "benchmark packages executed")
	metResults := opt.Metrics.Counter("deepheal_bench_results_total", "benchmark result lines parsed")
	metPkgSeconds := opt.Metrics.Histogram("deepheal_bench_package_seconds", "wall time of one package's benchmark run", nil)
	for _, pkg := range pkgs {
		args := []string{"test", "-run=^$", "-bench=" + pattern, "-benchtime=" + benchtime, "-benchmem"}
		if opt.CPUProfile != "" {
			args = append(args, "-cpuprofile="+opt.CPUProfile)
		}
		if opt.MemProfile != "" {
			args = append(args, "-memprofile="+opt.MemProfile)
		}
		args = append(args, pkg)
		start := time.Now()
		out, err := runGoTest(args, opt.Stdout)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", pkg, err)
		}
		metPackages.Inc()
		metPkgSeconds.Observe(time.Since(start).Seconds())
		results, importPath := parseOutput(out, procs)
		if importPath == "" {
			importPath = pkg
		}
		for i := range results {
			results[i].Package = importPath
		}
		metResults.Add(uint64(len(results)))
		rep.Results = append(rep.Results, results...)
	}
	sort.Slice(rep.Results, func(i, j int) bool { return rep.Results[i].Key() < rep.Results[j].Key() })
	return rep, nil
}

// runGoTest executes the go tool, teeing combined output to sink (when
// non-nil) and returning it for parsing.
func runGoTest(args []string, sink io.Writer) (string, error) {
	cmd := exec.Command("go", args...)
	var buf strings.Builder
	if sink != nil {
		cmd.Stdout = io.MultiWriter(&buf, sink)
		cmd.Stderr = io.MultiWriter(&buf, sink)
	} else {
		cmd.Stdout = &buf
		cmd.Stderr = &buf
	}
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("%w\n%s", err, buf.String())
	}
	return buf.String(), nil
}

// parseOutput extracts benchmark lines and the package import path from
// `go test -bench` output. procs is the effective GOMAXPROCS of the run,
// used to strip exactly the name suffix the testing package appended.
func parseOutput(out string, procs int) ([]Result, string) {
	var results []Result
	var importPath string
	sc := bufio.NewScanner(strings.NewReader(out))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "pkg: "); ok {
			importPath = strings.TrimSpace(rest)
			continue
		}
		if r, ok := ParseLine(line); ok {
			r.Name = trimProcs(r.Name, procs)
			results = append(results, r)
		}
	}
	return results, importPath
}

// ParseLine parses one benchmark result line of the form
//
//	BenchmarkName-8   1234   5678 ns/op   90 B/op   1 allocs/op
//
// The name is reported verbatim, including any -GOMAXPROCS suffix the
// testing package appended — whether one was appended at all depends on the
// run's GOMAXPROCS, so key normalisation happens in Run, which knows it.
// Value/unit pairs beyond the iteration count are matched by unit, so extra
// custom metrics inserted by b.ReportMetric are tolerated and skipped.
func ParseLine(line string) (Result, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: f[0], Iters: iters}
	seen := false
	for i := 2; i+1 < len(f); i += 2 {
		val, unit := f[i], f[i+1]
		switch unit {
		case "ns/op":
			if v, err := strconv.ParseFloat(val, 64); err == nil {
				r.NsPerOp = v
				seen = true
			}
		case "B/op":
			if v, err := strconv.ParseInt(val, 10, 64); err == nil {
				r.BytesPerOp = v
			}
		case "allocs/op":
			if v, err := strconv.ParseInt(val, 10, 64); err == nil {
				r.AllocsPerOp = v
			}
		}
	}
	return r, seen
}

// trimProcs drops the trailing -GOMAXPROCS suffix from a benchmark name so
// keys stay stable across machines: "BenchmarkX/sub-8" at GOMAXPROCS=8 →
// "BenchmarkX/sub". The testing package appends the suffix only when
// GOMAXPROCS != 1, and always the actual value — so the strip is keyed to
// the run's procs rather than any trailing digits. Stripping blindly broke
// baseline comparison two ways: at GOMAXPROCS=1 a benchmark whose own name
// ends in digits ("BenchmarkX/n-16") lost part of its name, and keys
// recorded on a GOMAXPROCS=1 machine never matched ones recorded elsewhere.
func trimProcs(name string, procs int) string {
	if procs <= 1 {
		return name // no suffix was appended
	}
	return strings.TrimSuffix(name, "-"+strconv.Itoa(procs))
}

// WriteFile saves the report as indented JSON.
func (rep *Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadFile loads a report written by WriteFile.
func ReadFile(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return &rep, nil
}

// Regression is one tracked benchmark that slowed past the allowed factor.
type Regression struct {
	Key        string
	BaselineNs float64
	CurrentNs  float64
	Ratio      float64
}

func (r Regression) String() string {
	return fmt.Sprintf("%s: %.0f ns/op -> %.0f ns/op (%.2fx > allowed)", r.Key, r.BaselineNs, r.CurrentNs, r.Ratio)
}

// MinGateNs is the default noise floor for the regression gate: benchmarks
// whose baseline is under a microsecond swing by multiples on shared CI
// runners, so they are reported but never gated.
const MinGateNs = 1000

// CompareStats summarises what a Compare actually gated, so a shrinking
// comparison is visible instead of silent.
type CompareStats struct {
	// Compared counts baseline benchmarks matched in the current run
	// (including ones below the noise floor).
	Compared int
	// SkippedBelowFloor counts matched benchmarks whose baseline is under
	// minNs: reported, never gated (timer noise dominates them).
	SkippedBelowFloor int
	// Missing lists baseline keys absent from the current run, sorted. A
	// deleted or renamed benchmark lands here — before this existed, it
	// silently shrank the regression gate.
	Missing []string
}

// Compare matches current against baseline by key and returns the
// benchmarks whose ns/op grew by more than factor, plus the comparison
// stats. Baselines below minNs are matched but not gated; baseline keys
// absent from the current run are reported in stats.Missing so the caller
// can warn or fail — the gate guards speed, and the stats guard coverage.
// Benchmarks new in the current run are ignored (they have no baseline to
// regress from).
func Compare(baseline, current *Report, factor, minNs float64) (regressions []Regression, stats CompareStats) {
	cur := make(map[string]Result, len(current.Results))
	for _, r := range current.Results {
		cur[r.Key()] = r
	}
	for _, b := range baseline.Results {
		c, ok := cur[b.Key()]
		if !ok {
			stats.Missing = append(stats.Missing, b.Key())
			continue
		}
		if b.NsPerOp <= 0 {
			continue
		}
		stats.Compared++
		if b.NsPerOp < minNs {
			stats.SkippedBelowFloor++
			continue
		}
		if ratio := c.NsPerOp / b.NsPerOp; ratio > factor {
			regressions = append(regressions, Regression{
				Key: b.Key(), BaselineNs: b.NsPerOp, CurrentNs: c.NsPerOp, Ratio: ratio,
			})
		}
	}
	sort.Strings(stats.Missing)
	sort.Slice(regressions, func(i, j int) bool { return regressions[i].Ratio > regressions[j].Ratio })
	return regressions, stats
}
